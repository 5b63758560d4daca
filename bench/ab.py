"""A/B of the benchmark: a git revision against the working tree.

Usage:
    python3 bench/ab.py --workload NAME --seed N [--pairs 10] [--trace 0|1]
                        [--control]

Exports ``HEAD`` (``git archive``) and the working tree (tracked and
untracked files that git does not ignore) to two temporary copies, runs
``python -m compileall -q src/cfx`` in each, then runs
``perfbench/run.py`` on the workload and seed in both copies, for the
``run_seconds`` that ``BENCHMARK.json`` gives, for ``--pairs`` pairs, one
after the other, alternating which side goes first.
It prints, per metric, each side's median and quartiles over its runs and
how many pairs each side won, then deletes the copies.

A change wins a pair when its value is better than the base's in the
direction ``BENCHMARK.json`` gives for the metric; ties count for neither
side. A gain is claimed only when the change wins at least nine tenths of
the pairs, its median beats the base's by more than the distance between
the base's quartiles, and no larger share of its operations failed. The
same rule with the sides swapped marks a metric worse: the base wins at
least nine tenths of the pairs, and its median beats the change's by more
than the distance between the change's quartiles.

``--control`` exports ``HEAD`` to both copies: an A/A run of the same
pairs, whose wins, losses and verdicts show what drift alone reads on the
workload. A verdict near the line is reported next to its control.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def last_json(stdout: str) -> dict:
    """The result object ``perfbench/run.py`` prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def failed_share(runs) -> float:
    """Failed operations over attempted ones, across ``runs``."""
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[dict]:
    """One row per metric of ``better`` (name -> "lower" or "higher") from
    (base, change) pairs of ``perfbench/run.py`` result objects."""
    base_runs, change_runs = zip(*pairs)
    steady = failed_share(change_runs) <= failed_share(base_runs)
    rows = []
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        bq, cq = quartiles(base), quartiles(change)
        gain = sign * (bq[1] - cq[1])
        rows.append({
            "metric": name,
            "base": bq,
            "change": cq,
            "wins": wins,
            "losses": losses,
            "pairs": len(pairs),
            "claim": steady and wins * 10 >= 9 * len(pairs) and gain > bq[2] - bq[0],
            "worse": losses * 10 >= 9 * len(pairs) and -gain > cq[2] - cq[0],
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'metric':16} {'base q1 / median / q3':>36} "
             f"{'change q1 / median / q3':>36}  losses  worse  wins  claim"]
    for row in rows:
        cells = [" / ".join(f"{x:10.6g}" for x in row[side]) for side in ("base", "change")]
        lines.append(f"{row['metric']:16} {cells[0]:>36} {cells[1]:>36}  "
                     f"{row['losses']:>4}/{row['pairs']:<2} {'yes' if row['worse'] else 'no':>5}  "
                     f"{row['wins']:>2}/{row['pairs']:<2} {'yes' if row['claim'] else 'no'}")
    return "\n".join(lines)


def export_revision(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_worktree(dest: Path) -> None:
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for rel in filter(None, listed):
        src = ROOT / rel
        if src.is_file():  # a tracked file deleted in the tree is skipped
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def export_sides(base: Path, change: Path, control: bool) -> None:
    """Export ``HEAD`` to ``base``, and the working tree to ``change``, or
    ``HEAD`` again with ``control``."""
    export_revision("HEAD", base)
    if control:
        export_revision("HEAD", change)
    else:
        export_worktree(change)


def run_once(copy: Path, args: argparse.Namespace, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds),
         "--trace", str(args.trace)],
        cwd=copy, capture_output=True, text=True, check=True,
    )
    return last_json(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--control", action="store_true",
                    help="A/A: export HEAD to both sides")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    better = {m["name"]: m["better"] for m in spec[key]}
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="cfx-ab-") as tmp:
        base, change = Path(tmp, "base"), Path(tmp, "change")
        base.mkdir()
        change.mkdir()
        export_sides(base, change, args.control)
        for copy in (base, change):
            subprocess.run(
                [sys.executable, "-m", "compileall", "-q", "src/cfx"],
                cwd=copy, check=True,
            )
        pairs = []
        for i in range(args.pairs):
            if i % 2:
                c = run_once(change, args, seconds)
                b = run_once(base, args, seconds)
            else:
                b = run_once(base, args, seconds)
                c = run_once(change, args, seconds)
            pairs.append((b, c))
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{args.pairs} pairs of {seconds:g}-s runs, base HEAD, change "
          f"{'HEAD (A/A control)' if args.control else 'the working tree'}")
    print(render(summarize(pairs, better)))
    for side, k in (("base", 0), ("change", 1)):
        print(f"{side}: {sum(p[k]['correct'] for p in pairs)} of {args.pairs} runs correct")
    return 0


if __name__ == "__main__":
    sys.exit(main())
