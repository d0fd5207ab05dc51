"""Scalarized Double-DQN (Section IV-B/IV-C) and the training loop.

The agent learns a vector Q function ``[Q_area, Q_delay]`` per action and
selects actions by scalarizing with the run's weight vector ``w`` (Eq. 6).
Targets follow double-DQN with the argmax taken on the scalarized local
network and the value read from the target network (Eq. 4). A training run
sweeps one scalarization weight; a Pareto frontier comes from sweeping
several (Section V-A trains 15 agents with w in [0.10, 0.99]).
"""

from repro.rl.replay import ReplayBuffer, Transition
from repro.rl.schedule import LinearSchedule
from repro.rl.agent import ScalarizedDoubleDQN, epsilon_greedy
from repro.rl.trainer import (
    CollectionLoop,
    Trainer,
    TrainerConfig,
    TrainingHistory,
    make_loop,
)
from repro.rl.checkpoint import CheckpointError, CheckpointManager
from repro.rl.sweep import rl_search
from repro.rl.evaluation import greedy_rollout, RolloutResult

__all__ = [
    "greedy_rollout",
    "RolloutResult",
    "ReplayBuffer",
    "Transition",
    "LinearSchedule",
    "ScalarizedDoubleDQN",
    "epsilon_greedy",
    "CollectionLoop",
    "make_loop",
    "Trainer",
    "TrainerConfig",
    "TrainingHistory",
    "CheckpointError",
    "CheckpointManager",
    "rl_search",
]
