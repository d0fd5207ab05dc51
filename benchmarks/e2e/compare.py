#!/usr/bin/env python3
"""Compare two ``run.py --out`` reports: ``compare.py PARENT.json CHANGE.json``.

Per (end-to-end metric, workload) row, with the bounds of ``BENCHMARK.json``:

- ``worse``      — the change's value is worse than the parent's by more than
  the metric's bound;
- ``unresolved`` — it is not, but either report's round-to-round spread is
  wider than the bound, so "unchanged" cannot be claimed;
- ``not worse``  — otherwise.

Then the things that must repeat exactly on the same seed: each workload's
digest and every program-made count (per-layer metrics that are not times or
percentages). Exits 1 on any ``worse`` row, failed op, digest or count
mismatch; 2 when the reports are not comparable (seed or run length differ).
Two reports of the same commit are the benchmark's self-agreement check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent.parent
TIMED_UNITS = ("s", "%")


def verdict(parent: dict, change: dict, better: str, bound: float) -> "tuple[str, float]":
    """``(verdict, share by which the change is worse)`` for one row."""
    worse = stats.worse_by(parent["value"], change["value"], better)
    if worse > bound:
        return "worse", worse
    if max(parent["spread"], change["spread"]) > bound:
        return "unresolved", worse
    return "not worse", worse


def compare(parent: dict, change: dict, spec: dict) -> "tuple[list[str], int]":
    """Report lines and the number of failures."""
    lines, failures = [], 0
    for name in parent["workloads"]:
        if name not in change["workloads"]:
            lines.append(f"{name}: missing from the second report")
            failures += 1
            continue
        a, b = parent["workloads"][name], change["workloads"][name]
        lines.append(name)
        for metric in spec["end_to_end"]:
            row_a, row_b = a["end_to_end"][metric["name"]], b["end_to_end"][metric["name"]]
            word, worse = verdict(row_a, row_b, metric["better"], metric["bound"])
            failures += word == "worse"
            lines.append(
                f"  {metric['name']:<14s} {row_a['value']:>12.5g} -> {row_b['value']:>12.5g} {metric['unit']:<4s}"
                f" {100 * worse:+7.2f}% worse (bound {100 * metric['bound']:.0f}%,"
                f" spreads {row_a['spread']:.3f}/{row_b['spread']:.3f})  {word}"
            )
        share_a, share_b = a["end_to_end"]["failed_ops_share"]["value"], b["end_to_end"]["failed_ops_share"]["value"]
        failed = share_b > share_a or share_b > 0
        failures += failed
        lines.append(f"  failed_ops_share {share_a:g} -> {share_b:g}  {'worse' if failed else 'not worse'}")
        same = a["digest"] == b["digest"] and a["digests_agree"] and b["digests_agree"]
        failures += not same
        lines.append(f"  digest {a['digest'][:12]} / {b['digest'][:12]}  {'equal' if same else 'DIFFERENT'}")
        moved = [
            f"{m} {a['per_layer'][m]['value']} -> {b['per_layer'].get(m, {}).get('value')}"
            for m, row in a["per_layer"].items()
            if row["unit"] not in TIMED_UNITS and b["per_layer"].get(m, {}).get("value") != row["value"]
        ]
        failures += bool(moved)
        lines.append("  exact counts equal" if not moved else "  exact counts DIFFER: " + "; ".join(moved))
    return lines, failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(p).read_text()) for p in argv)
    if (parent["seed"], parent["seconds"]) != (change["seed"], change["seconds"]):
        print("reports differ in seed or run length: digests and counts are not comparable", file=sys.stderr)
        return 2
    lines, failures = compare(parent, change, json.loads((ROOT / "BENCHMARK.json").read_text()))
    print("\n".join(lines))
    print(f"{failures} failing row(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
