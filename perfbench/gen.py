"""Seeded inputs for the cfx benchmark workloads.

Every workload runs over the same space: 9 features named f0..f8, each with
the ordered domain {0,1,2}, and the entity ``e`` with every value ``0``.
The seed changes only the order of table rows, the positions of the key
features, the marginals and the denial pair; sizes and the amount of work
stay the same for every seed, so run-to-run spread is not seed-driven.

The label functions below are the references the output checks use; they
do not come from ``cfx``.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import csv
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

N = 9
DOMAIN = ("0", "1", "2")
NAMES = tuple(f"f{i}" for i in range(N))
SPACE = len(DOMAIN) ** N
ENTITY = ("0",) * N
N_KEYS = 5
# all marginal weights are k/DENOM with DENOM prime, so every seed's
# Fraction arithmetic works on numbers of the same size
DENOM = 997

WORKLOADS = ("enum-table", "external-key", "resp-product", "emit-facts")


def majority_label(values) -> int:
    """1 iff at least half of the features are ``0``."""
    return int(2 * sum(v == "0" for v in values) >= len(values))


def key_label(values, keys) -> int:
    """0 iff every key feature equals ``2``."""
    return int(not all(values[i] == "2" for i in keys))


@dataclass(frozen=True)
class Plan:
    """Everything the seed decides, for every workload."""

    seed: int
    rows: tuple[tuple[str, ...], ...]
    keys: tuple[int, ...]
    decrease_only: int
    denial: tuple[tuple[int, str], ...]
    marginals: tuple[tuple[Fraction, ...], ...]

    def admissible(self, cand) -> bool:
        """Reference reading of the external-key constraints."""
        if all(cand[i] == v for i, v in self.denial):
            return False
        return int(cand[self.decrease_only]) <= int(ENTITY[self.decrease_only])


def plan(seed: int) -> Plan:
    # one stream per aspect: the table of a seed is the same in every
    # workload that uses it
    rows = list(product(DOMAIN, repeat=N))
    random.Random(f"{seed}:rows").shuffle(rows)

    rng = random.Random(f"{seed}:keys")
    keys = tuple(sorted(rng.sample(range(N), N_KEYS)))
    others = [i for i in range(N) if i not in keys]
    decrease_only = rng.choice(others)
    pair = sorted(rng.sample([i for i in others if i != decrease_only], 2))
    # nonzero values: the denial never forbids the key-only explanation
    denial = tuple((i, rng.choice(DOMAIN[1:])) for i in pair)

    rng = random.Random(f"{seed}:marginals")
    marginals = []
    for _ in range(N):
        a = rng.randint(1, DENOM - 2)
        b = rng.randint(1, DENOM - 1 - a)
        marginals.append(tuple(Fraction(k, DENOM) for k in (a, b, DENOM - a - b)))
    return Plan(seed, tuple(rows), keys, decrease_only, denial, tuple(marginals))


def write(workload: str, seed: int, out: Path) -> Plan:
    """Write the input files of one workload into ``out``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    p = plan(seed)
    out.mkdir(parents=True, exist_ok=True)
    schema = {
        "features": [
            {"name": name, "domain": list(DOMAIN), "ordered": True} for name in NAMES
        ]
    }
    (out / "schema.json").write_text(json.dumps(schema) + "\n")
    (out / "entity.json").write_text(json.dumps({"id": "e", "values": list(ENTITY)}) + "\n")

    if workload in ("enum-table", "emit-facts"):
        with open(out / "table.csv", "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow([*NAMES, "label"])
            for vec in p.rows:
                w.writerow([*vec, majority_label(vec)])

    if workload == "external-key":
        constraints = {
            "denials": [
                {"literals": [{"feature": NAMES[i], "value": v} for i, v in p.denial]}
            ],
            "actionability": [
                {"feature": NAMES[p.decrease_only], "mode": "decrease-only"}
            ],
        }
        (out / "constraints.json").write_text(json.dumps(constraints) + "\n")

    if workload == "resp-product":
        # every 5-subset all 0 means "at least 5 of 9 features are 0"
        lines = [
            "if " + " and ".join(f"{NAMES[i]} = 0" for i in subset) + " then 1"
            for subset in combinations(range(N), (N + 1) // 2)
        ]
        (out / "rules.txt").write_text("\n".join([*lines, "default 0"]) + "\n")
        with open(out / "marginals.csv", "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["feature", "value", "probability"])
            for name, marg in zip(NAMES, p.marginals):
                for v, m in zip(DOMAIN, marg):
                    w.writerow([name, v, f"{m.numerator}/{m.denominator}"])
    return p


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    write(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
