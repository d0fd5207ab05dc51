#!/usr/bin/env bash
# Differential-CLI regression gate.
#
# The whole pipeline is deterministic, so the seed CLI commands must produce
# byte-identical output at HEAD and at a base commit unless a change
# *intends* to alter results. This is the verification trick used manually
# in every optimization PR, promoted to a CI job: the train command's cache
# stats + frontier output is a sensitive fingerprint of RL-trajectory
# equivalence, and eval/synth cover the analytical and synthesis stacks.
# The e2e benchmark's smoke digests ride along, for the lockstep-replica
# acting path.
#
# Usage: scripts/diff_cli.sh <base-commit>   (run from the repo root)
set -euo pipefail

BASE="${1:?usage: scripts/diff_cli.sh <base-commit>}"
ROOT="$(git rev-parse --show-toplevel)"
cd "$ROOT"

WT="$(mktemp -d)/base"
OUT="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$WT" 2>/dev/null || true
    rm -rf "$OUT"
}
trap cleanup EXIT
git worktree add --detach --quiet "$WT" "$BASE"

COMMANDS=(
    "build brent_kung 16"
    "eval sklansky 64"
    "render kogge_stone 16 --grid"
    "synth sklansky 16"
    "synth ripple 32"
    "synth brent_kung 32 --library industrial8nm"
    "synth kogge_stone 64 --library industrial8nm"
    "train 8 --steps 60 --seed 3"
    "train 8 --steps 60 --seed 3 --envs 3"
    # 185 gradient steps: the target network syncs at 60, 120 and 180.
    "train 8 --steps 200 --seed 3"
    # Most of its ticks take their gradient step while the round's
    # successors synthesize on the prefetch worker.
    "train 16 --steps 400 --seed 0"
    "sweep 6 --weights 2 --steps 40 --seed 1"
    "eval han_carlson 65"
    "sweep 33 --weights 2 --steps 40 --seed 2"
    # The command list, then flag names, defaults and help of the training
    # commands (argparse wraps at 80 columns when stdout is not a terminal).
    "--help"
    "train --help"
    "sweep --help"
)

status=0
for cmd in "${COMMANDS[@]}"; do
    # shellcheck disable=SC2086
    PYTHONPATH="$WT/src" python -m repro $cmd > "$OUT/base.out" 2>/dev/null || {
        echo "SKIP (fails at base $BASE): repro $cmd"
        continue
    }
    # shellcheck disable=SC2086
    if ! PYTHONPATH=src python -m repro $cmd > "$OUT/head.out" 2> "$OUT/head.err"; then
        echo "FAIL repro $cmd (errors at HEAD but worked at $BASE):"
        cat "$OUT/head.err"
        status=1
        continue
    fi
    if diff -u "$OUT/base.out" "$OUT/head.out" > "$OUT/delta"; then
        echo "OK  repro $cmd"
    else
        echo "DIFF repro $cmd (HEAD output differs from $BASE):"
        cat "$OUT/delta"
        status=1
    fi
done

# Preempt, then resume, each side in its own checkpoint directory: the
# resumed stdout must equal the base's. The base may write another
# checkpoint format than HEAD, so a format change that moves a resumed
# trajectory shows here.
RESUMES=(
    "train 8 --steps 60 --seed 3"
    "train 8 --steps 60 --seed 3 --envs 3"
    "train 8 --steps 200 --seed 3"
    "train 16 --steps 400 --seed 0"
)
resumed_stdout() {  # <src-dir> <command>
    local ckpt
    ckpt="$(mktemp -d "$OUT/ckpt.XXXXXX")"
    # shellcheck disable=SC2086
    PYTHONPATH="$1" python -m repro $2 --checkpoint-dir "$ckpt" --stop-after 30 > /dev/null &&
        PYTHONPATH="$1" python -m repro $2 --checkpoint-dir "$ckpt" --resume
}
for cmd in "${RESUMES[@]}"; do
    label="repro $cmd (--stop-after 30, then --resume)"
    resumed_stdout "$WT/src" "$cmd" > "$OUT/base.out" 2>/dev/null || {
        echo "SKIP (fails at base $BASE): $label"
        continue
    }
    if ! resumed_stdout src "$cmd" > "$OUT/head.out" 2> "$OUT/head.err"; then
        echo "FAIL $label (errors at HEAD but worked at $BASE):"
        cat "$OUT/head.err"
        status=1
    elif diff -u "$OUT/base.out" "$OUT/head.out" > "$OUT/delta"; then
        echo "OK  $label"
    else
        echo "DIFF $label (HEAD output differs from $BASE):"
        cat "$OUT/delta"
        status=1
    fi
done

# The e2e smoke's four workload digests (one traced round each, ~15 s a
# side). collect_vec8_n32 acts over eight lockstep replicas with no
# learner, a path none of the commands above runs.
smoke_digests() {
    (cd "$1" && python3 benchmarks/e2e/run.py --smoke 2>/dev/null) |
        sed -n 's/^\([a-z0-9_]*\) .*\(digest=[0-9a-f]*\).*/\1 \2/p'
}
if [ ! -f "$WT/benchmarks/e2e/run.py" ]; then
    echo "SKIP (no e2e benchmark at base $BASE): e2e smoke digests"
else
    smoke_digests "$WT" > "$OUT/base.out" || true
    smoke_digests "$ROOT" > "$OUT/head.out" || true
    if [ ! -s "$OUT/head.out" ]; then
        echo "FAIL e2e smoke digests (none printed at HEAD)"
        status=1
    elif diff -u "$OUT/base.out" "$OUT/head.out" > "$OUT/delta"; then
        echo "OK  e2e smoke digests"
    else
        echo "DIFF e2e smoke digests (HEAD differs from $BASE):"
        cat "$OUT/delta"
        status=1
    fi
fi

if [ "$status" -ne 0 ]; then
    echo
    echo "CLI output changed vs the base commit. If the change is intentional"
    echo "(new numbers, new output format), label the PR 'cli-output-change'"
    echo "to skip this gate and say so in the PR description."
fi
exit "$status"
