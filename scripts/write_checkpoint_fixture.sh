#!/usr/bin/env bash
# Write a checkpoint fixture with this tree: `repro train 8 --steps 60
# --seed 3` preempted at step 30 (LATEST, step-00000030/), and the
# uninterrupted run's stdout (uninterrupted.stdout), which a resume of the
# snapshot must print byte for byte. The same two commands wrote every
# fixture under tests/fixtures/.
#
# Usage: scripts/write_checkpoint_fixture.sh [out-dir]   (run from the repo root;
#        default tests/fixtures/pr53_train8_seed3, which must not exist yet)
set -euo pipefail

OUT="${1:-tests/fixtures/pr53_train8_seed3}"
if [ -e "$OUT" ]; then
    echo "$OUT exists; a fixture is never rewritten in place" >&2
    exit 1
fi
mkdir -p "$OUT"
PYTHONPATH=src python -m repro train 8 --steps 60 --seed 3 --checkpoint-dir "$OUT" --stop-after 30
PYTHONPATH=src python -m repro train 8 --steps 60 --seed 3 > "$OUT/uninterrupted.stdout"
