"""The serial collection tick: act, step, push, train.

:meth:`repro.rl.trainer.CollectionLoop.tick` as it was before it learned to
take gradient steps while a round's successors synthesize: the round is
acted and stepped in full, folded and pushed, and only then is every due
gradient step sampled and taken. The overlapped tick must reproduce it byte
for byte (``tests/rl/test_overlap.py``).
"""

from __future__ import annotations

from repro.rl.trainer import acting_round, fold_round, gradient_due, push_round


def serial_tick(loop) -> None:
    """One round of ``loop`` (a :class:`~repro.rl.trainer.CollectionLoop`) in the serial order."""
    cfg, history = loop.config, loop.history
    epsilon = loop.schedule(history.env_steps)
    round_, loop._obs, loop._masks = acting_round(
        loop.env, loop._obs, loop._masks,
        lambda obs, masks: loop.agent.act_batch(obs, masks, epsilon=epsilon),
    )
    kept = fold_round(history, loop.episode_returns, loop.agent.w, round_, epsilon, loop.total)
    push_round(loop.buffer, round_, kept)
    while gradient_due(len(loop.buffer), history.gradient_steps, history.env_steps, cfg):
        loss = loop.agent.train_step(loop.buffer.sample(cfg.batch_size))
        history.losses.append(loss)
        history.gradient_steps += 1
