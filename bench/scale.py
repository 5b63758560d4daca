"""Scale ladder: whole CLI runs on threshold-model truth tables of growing size.

Usage:
    python3 bench/scale.py [--sizes 8,9,10,11,12,12m] [--out BENCH_scale.json]
                           [--base DIR]

Rung ``n`` is the threshold model over n features with domain
``{0,1,2}``: the label is 1 iff at most h = n // 2 features leave ``0``,
and the entity is all ``0``. Rung ``nm`` is the same model with the values
``a0``, ``a1``, ``a2``. The script writes each rung's schema, entity, total
table and one denial (``F1 = 1`` with ``Fn = 2``, in the rung's values) to a
temporary directory, the table three times: with ``"\n"`` line ends, with
``"\r\n"`` (``csv.writer``'s default) and with every cell quoted. It runs
``python -m compileall -q`` on ``src/cfx`` once, and pins itself, and so
every process it starts, to one CPU. Then, per rung, it runs each of
COMMANDS in a fresh process: ``classify`` (the table load and one label)
on each copy of the table, ``explain``, ``emit-asp --weak --count``,
``score``, ``score --prob uniform``, and the latter conditioned on the
denial. Each runs in the temporary directory and names the rung's files
relative to it, so no stdout holds the directory's path, and the sha256
of every cell can be compared between ladder runs.

Each CLI process is started by a small helper process that waits for it
with ``os.wait4``, so the peak RSS is the CLI's own: a child's
``ru_maxrss`` also counts the image of the process it was spawned from
(until ``exec``), and the helper's image (about 8.6 MB) is below any CLI
run's peak, while this script's own is not. The helper times the CLI from
spawn to exit.

Per run it records the wall time, the peak RSS, the manifest's
``classifier_calls`` and ``backend_calls``, and stdout's byte length and
sha256 (over REPEAT runs: the median time and RSS, beside every run's
in ``wall_s_runs`` and ``peak_rss_mb_runs``), and each ``score``
command's scores. It checks these closed forms on this tree's runs, with
A(m, j) = sum_{s <= j} C(m, s) * 2^s:

- ``classify`` prints ``1``, whichever copy of the table it loads;
- ``explain`` finds sum_{k > h} C(n, k) * 2^k counterfactuals, of which the
  C(n, h+1) * 2^(h+1) on level h+1 are the s-minimal ones;
- ``score`` gives every feature 1/(h+1), in A(n, h+1) queries and backend
  calls: every set of h+1 features is minimal, so the walk asks every
  level up to h+1 and no set above it;
- ``score --prob uniform`` gives every feature 2/(3(h+1)), in
  3n (A(n-1, h-1) + 1) queries and A(n, h) + 2n - h backend calls.

The conditioned score has no closed form; only a clean exit and, with
``--base``, the base's bytes check it. ``--base DIR`` runs every
command also against the ``src`` of the checkout DIR, right before the
same command here, records those runs under ``"base"``, and checks that
they exit 0 and print the same bytes as this tree's. It writes the results to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# each command line's first word is the subcommand; after the common
# --schema, --entity and --table (unless the command names its own table),
# a word naming a rung file is its path
COMMANDS = (
    "classify",
    "classify --table table-crlf.csv",
    "classify --table table-quoted.csv",
    "explain",
    "emit-asp --weak --count",
    "score",
    "score --prob uniform",
    "score --prob uniform --condition condition.json",
)

# runs per command and tree; a row holds their median time and RSS, and
# the list of every run's
REPEAT = 3

# the rung's copies of its table, each with the csv.writer settings that
# write it; the loader reads plain text a block at a time, and quoted text
# row by row
TABLES = {
    "table.csv": {"lineterminator": "\n"},
    "table-crlf.csv": {},
    "table-quoted.csv": {"lineterminator": "\n", "quoting": csv.QUOTE_ALL},
}

# Run in a fresh interpreter as ``python -S -c HELPER FD PROGRAM ARG...``
# (without ``site``, its peak RSS is about 8.6 MB):
# spawns PROGRAM ARG..., which inherits stdin, stdout and stderr, waits for
# it, and writes "wall_s ru_maxrss_kib exit_code" to the file descriptor FD
HELPER = """\
import os, sys, time
fd, argv = int(sys.argv[1]), sys.argv[2:]
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
os.write(fd, f"{wall} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}".encode())
"""

# stdout is scanned in pieces of this many bytes: ``explain`` at n = 12
# prints about 200 MB
READ_BYTES = 1 << 20


def a(m: int, j: int) -> int:
    """A(m, j): the vectors within j changes of one, m features of 3 values."""
    return sum(comb(m, s) * 2**s for s in range(j + 1))


class Rung:
    """One threshold-model table: ``n`` features, label 1 iff at most
    ``n // 2`` of them leave the first value."""

    def __init__(self, name: str):
        self.name = name
        self.n = int(name.removesuffix("m"))  # ValueError on a bad name
        if self.n < 1:
            raise ValueError(f"rung {name!r} has no features")
        self.values = ["a0", "a1", "a2"] if name.endswith("m") else ["0", "1", "2"]
        self.h = self.n // 2

    def hits(self) -> int:
        return sum(comb(self.n, k) * 2**k for k in range(self.h + 1, self.n + 1))

    def s_minimal(self) -> int:
        return comb(self.n, self.h + 1) * 2 ** (self.h + 1)

    def score_calls(self) -> int:
        """Queries (and backend calls) of ``score``."""
        return a(self.n, self.h + 1)

    def prob_calls(self) -> tuple[int, int]:
        """Queries and backend calls of ``score --prob uniform``."""
        n, h = self.n, self.h
        return 3 * n * (a(n - 1, h - 1) + 1), a(n, h) + 2 * n - h

    def write(self, out: Path) -> dict[str, Path]:
        """Write the schema, entity, table and condition files into ``out``."""
        names = [f"F{i + 1}" for i in range(self.n)]
        files = {
            k: out / f"{self.name}-{k}"
            for k in ("schema.json", "entity.json", *TABLES, "condition.json")
        }
        files["schema.json"].write_text(json.dumps(
            {"features": [{"name": name, "domain": self.values} for name in names]}
        ))
        files["entity.json"].write_text(json.dumps(
            {"id": "e", "values": [self.values[0]] * self.n}
        ))
        files["condition.json"].write_text(json.dumps({"denials": [{"literals": [
            {"feature": names[0], "value": self.values[1]},
            {"feature": names[-1], "value": self.values[2]},
        ]}]}))
        first = self.values[0]

        def rows():
            yield [*names, "label"]
            for vec in product(self.values, repeat=self.n):
                yield [*vec, "1" if self.n - vec.count(first) <= self.h else "0"]

        for table, style in TABLES.items():
            with open(files[table], "w", newline="") as fh:
                csv.writer(fh, **style).writerows(rows())
        return files


def argv_of(command: str, files: dict[str, Path]) -> list[str]:
    """The command line of ``command`` with the rung's ``files`` named
    relative to their directory, where the CLI runs: ``score --prob``
    echoes the ``--condition`` path in its payload, so an absolute
    temporary path would change stdout from run to run."""
    sub, *words = command.split()
    table = [] if "--table" in words else ["--table", files["table.csv"].name]
    return [sub, "--schema", files["schema.json"].name,
            "--entity", files["entity.json"].name, *table,
            *(files[word].name if word in files else word for word in words)]


def scan(path: Path, patterns: tuple[bytes, ...]) -> tuple[int, str, list[int]]:
    """Byte length, sha256 and pattern counts of the file ``path``, read a
    piece at a time."""
    digest, size, counts = hashlib.sha256(), 0, [0] * len(patterns)
    keep = max(map(len, patterns), default=1) - 1
    tail = b""
    with open(path, "rb") as fh:
        while piece := fh.read(READ_BYTES):
            digest.update(piece)
            size += len(piece)
            # ``tail`` ends the last piece: a match inside it is counted
            buf = tail + piece
            for i, pattern in enumerate(patterns):
                counts[i] += buf.count(pattern) - tail.count(pattern)
            tail = buf[-keep:] if keep else b""
    return size, digest.hexdigest(), counts


def run_cli(src: Path, argv: list[str], work: Path) -> dict:
    """One CLI run from the package in ``src``, through HELPER, in the
    directory ``work``."""
    out, err = work / "stdout", work / "stderr"
    env = {**os.environ, "PYTHONPATH": str(src)}
    read, write = os.pipe()
    try:
        with open(out, "wb") as fo, open(err, "wb") as fe:
            subprocess.run(
                [sys.executable, "-S", "-c", HELPER, str(write),
                 sys.executable, "-m", "cfx.cli", *argv],
                stdin=subprocess.DEVNULL, stdout=fo, stderr=fe, env=env,
                pass_fds=(write,), check=True, cwd=work,
            )
        os.close(write)
        write = -1
        wall, maxrss, code = os.read(read, 256).split()
    finally:
        os.close(read)
        if write >= 0:
            os.close(write)
    manifest = json.loads(err.read_text().strip().splitlines()[-1])["manifest"]
    size, sha, (hits, s_minimal) = scan(out, (b'"cardinality": ', b'"s_minimal": true'))
    run = {
        "exit": int(code),
        "wall_s": float(wall),
        "peak_rss_mb": int(maxrss) / 1024,
        "classifier_calls": manifest["classifier_calls"],
        "backend_calls": manifest["backend_calls"],
        "stdout_bytes": size,
        "stdout_sha256": sha,
    }
    if argv[0] == "explain":
        run["hits"], run["s_minimal"] = hits, s_minimal
    elif argv[0] == "classify":
        run["stdout"] = out.read_text()
    elif argv[0] == "score" and run["exit"] == 0:
        run["scores"] = [row["score"] for row in json.loads(out.read_text())["scores"]]
    return run


def summarize(runs: list[dict]) -> dict:
    """The runs of one command: the median time and RSS, each beside the
    list of every run's, the rest as run. Every run must print the same
    bytes."""
    require(len({r["stdout_sha256"] for r in runs}) == 1, "stdout differs between runs")
    row = dict(runs[0])
    for key in ("wall_s", "peak_rss_mb"):
        row[f"{key}_runs"] = [r[key] for r in runs]
        row[key] = statistics.median(row[f"{key}_runs"])
    return row


def check(rung: Rung, command: str, row: dict) -> None:
    """The closed forms, and a clean exit."""
    where = f"rung {rung.name}, {command}"
    require(row["exit"] == 0, f"{where}: exit {row['exit']}")
    if command.startswith("classify"):
        require(row["stdout"] == "1\n", f"{where}: printed {row['stdout']!r}")
    if command == "explain":
        want = (rung.hits(), rung.s_minimal())
        got = (row["hits"], row["s_minimal"])
        require(got == want, f"{where}: (hits, s-minimal) {got}, closed form {want}")
    if command in ("score", "score --prob uniform"):
        one = Fraction(1, rung.h + 1) if command == "score" else Fraction(2, 3 * (rung.h + 1))
        calls = (rung.score_calls(),) * 2 if command == "score" else rung.prob_calls()
        want = ([f"{one.numerator}/{one.denominator}"] * rung.n, calls)
        got = (row["scores"], (row["classifier_calls"], row["backend_calls"]))
        require(got == want, f"{where}: (scores, calls) {got}, closed form {want}")


def require(holds: bool, message: str) -> None:
    if not holds:
        raise SystemExit(f"scale.py: {message}")


def compile_tree(src: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src / "cfx")], check=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="8,9,10,11,12,12m",
                    help="comma-separated rungs: n, or nm for multi-character values")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    ap.add_argument("--base", type=Path, help="checkout whose src to run beside this one")
    args = ap.parse_args(argv)
    try:
        rungs = [Rung(name) for name in args.sizes.split(",")]
    except ValueError as exc:
        ap.error(f"--sizes: {exc}")
    trees = {"change": ROOT / "src"}
    if args.base:
        trees = {"base": args.base.resolve() / "src", **trees}
    for src in trees.values():
        compile_tree(src)
    cpu = None
    if hasattr(os, "sched_setaffinity"):  # Linux
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})

    results = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for rung in rungs:
            files = rung.write(work)
            entry = {
                "rung": rung.name, "n": rung.n, "values": rung.values,
                "rows": len(rung.values) ** rung.n,
                "table_bytes": files["table.csv"].stat().st_size,
                "runs": {}, **({"base": {}} if args.base else {}),
            }
            for command in COMMANDS:
                runs: dict[str, list[dict]] = {side: [] for side in trees}
                for _ in range(REPEAT):
                    for side, src in trees.items():
                        runs[side].append(run_cli(src, argv_of(command, files), work))
                rows = {side: summarize(rs) for side, rs in runs.items()}
                check(rung, command, rows["change"])
                if args.base:
                    # the closed forms are this tree's: a base may ask more
                    require(rows["base"]["exit"] == 0,
                            f"rung {rung.name}, {command}: base exit {rows['base']['exit']}")
                    require(
                        rows["base"]["stdout_sha256"] == rows["change"]["stdout_sha256"],
                        f"rung {rung.name}, {command}: stdout differs from the base's",
                    )
                    entry["base"][command] = rows["base"]
                entry["runs"][command] = rows["change"]
                print(f"{rung.name:>4} {command:48}" + "".join(
                    f"  {side} {row['wall_s']:.3f} s {row['peak_rss_mb']:.1f} MB"
                    for side, row in rows.items()
                ), flush=True)
            for name in files.values():
                name.unlink()
            results.append(entry)
    args.out.write_text(json.dumps({
        "python": sys.version.split()[0],
        "cpu": cpu,
        "repeat": REPEAT,
        "rungs": results,
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
