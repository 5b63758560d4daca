"""The cfx benchmark: four seeded workloads through the real command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's ``cfx`` command in a closed loop (the next
run starts when the previous one exits) for ``--seconds``, checks every
payload against a reference that does not come from cfx, and prints one
line per metric followed, as the last line, by a JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: CLI wall time, peak RSS,
vectors per second, and, measured in-process with cfx imported from
``src``, set-up time and the minimum-change query
``search.c_explanations``. ``--trace 1`` alternates untraced CLI runs with
traced in-process runs that call the same public functions and report the
per-layer metrics; the traced payload must match the CLI's stdout byte for
byte and its classifier counts must match the CLI manifest.

The harness pins itself, and so every process it starts, to one CPU:
the figures are single-CPU costs (see main()).

Every reported time is the median over the run of its measurements, each
scaled to a nominal host speed by the probes that a monitor process took
on the same CPU while it ran (see speed.py); for end-to-end times the raw
median is printed beside. Peak RSS does not depend on speed and is a
plain median.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shlex
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import gen
import speed
from spans import Proxy, Tracer, by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

MIN_SAMPLES = 3
CLI_TIMEOUT_S = 30.0
# in-process set-up is repeated for at least this long after each CLI run
SETUP_SLICE_S = 0.1
STARTUP_REPS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cexpl_s": "s",
    "vectors_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    "cli.render_s": "s",
    "schema.load_s": "s",
    "classify.load_s": "s",
    "classify.external.spawn_s": "s",
    "classify.queries": "count",
    "classify.backend_calls": "count",
    "classify.hit_ratio": "ratio",
    "classify.label_s": "s",
    "classify.external.round_trips": "count",
    "classify.external.rtt_us_p50": "us",
    "classify.external.rtt_us_max": "us",
    "constrain.checks": "count",
    "constrain.rejected": "count",
    "constrain.admissible_s": "s",
    "search.enumerate_s": "s",
    "search.self_s": "s",
    "search.candidates": "count",
    "search.hits": "count",
    "search.s_minimal": "count",
    "search.c_minimal": "count",
    "search.levels": "count",
    "score.global_resp_s": "s",
    "score.conditional_calls": "count",
    "score.conditional_s": "s",
    "aspgen.emit_s": "s",
    "aspgen.lint_s": "s",
    "aspgen.program_bytes": "bytes",
    "trace.overhead_s": "s",
}


# --- inputs -------------------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    workload: str
    plan: gen.Plan
    dir: Path  # relative to ROOT, which is the working directory

    def file(self, name: str) -> str:
        return str(self.dir / name)

    @property
    def external(self) -> str:
        keys = ",".join(map(str, self.plan.keys))
        return shlex.join([sys.executable, str(HERE / "child.py"), keys])

    @property
    def budget(self) -> int | None:
        # the default external budget (10000) would truncate the walk
        return gen.SPACE if self.workload == "external-key" else None

    def cli_args(self) -> list[str]:
        common = ["--schema", self.file("schema.json"), "--entity", self.file("entity.json")]
        if self.workload == "enum-table":
            return ["explain", *common, "--table", self.file("table.csv")]
        if self.workload == "external-key":
            return ["explain", *common, "--external", self.external,
                    "--budget", str(self.budget),
                    "--constraints", self.file("constraints.json")]
        if self.workload == "resp-product":
            return ["score", *common, "--rules", self.file("rules.txt"),
                    "--prob", "product:" + self.file("marginals.csv")]
        return ["emit-asp", *common, "--table", self.file("table.csv"), "--weak", "--count"]


def make_inputs(workload: str, seed: int) -> Inputs:
    d = WORK.relative_to(ROOT) / f"{workload}-{seed}"
    plan = gen.write(workload, seed, ROOT / d)
    return Inputs(workload, plan, d)


# --- the CLI, untraced -----------------------------------------------------------


@dataclass
class CliRun:
    wall_s: float
    rss_mb: float
    code: int | None
    stdout: bytes
    stderr: bytes

    def manifest_counts(self) -> tuple[int, int] | None:
        """(classifier_calls, backend_calls) from the stderr manifest."""
        try:
            last = self.stderr.decode(errors="replace").strip().splitlines()[-1]
            manifest = json.loads(last)["manifest"]
            return manifest["classifier_calls"], manifest["backend_calls"]
        except (IndexError, ValueError, KeyError, TypeError):
            return None


def run_cli(inp: Inputs) -> CliRun:
    """One whole CLI run, process start to exit, with the child's rusage."""
    argv = [sys.executable, str(HERE / "launch.py"), *inp.cli_args()]
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(CLI_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode if proc.returncode >= 0 else None  # None: killed
    return CliRun(wall, usage.ru_maxrss / 1024.0, code,
                  out_path.read_bytes(), err_path.read_bytes())


class Verdicts:
    """Checks each distinct payload once and remembers the verdict by digest."""

    def __init__(self, inp: Inputs):
        self.inp = inp
        self.by_digest: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, run: CliRun) -> bool:
        problems = []
        if run.code != 0:
            why = "killed after the timeout" if run.code is None else f"exit code {run.code}"
            problems.append(f"{why}: {run.stderr[-500:]!r}")
        else:
            digest = hashlib.sha256(run.stdout).hexdigest()
            if digest not in self.by_digest:
                self.by_digest[digest] = self._check(run.stdout)
            problems = self.by_digest[digest]
            if len(self.by_digest) > 1:
                problems = [*problems, "payload differs between runs of one seed"]
        return self.record(problems)

    def _check(self, stdout: bytes) -> list[str]:
        try:
            return check.CHECKS[self.inp.workload](stdout.decode(), self.inp.plan)
        except (ValueError, KeyError, TypeError) as exc:  # malformed payload
            return [f"payload does not have the expected shape: {exc!r}"]

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it. Below 21
    samples that percentile is not above the median, so the maximum is
    reported instead; the note says which it is."""
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return xs[-1], f"max of {n} samples"
    k = n - 11
    return xs[k], f"p{100 * k / (n - 1):.0f} of {n} samples"


# --- the same work, in-process -----------------------------------------------------


class Loaded:
    """A workload's inputs loaded through cfx's public loaders."""

    def __init__(self, inp: Inputs, tr: Tracer):
        from cfx import constrain, score
        from cfx.classify import ExternalClassifier, TableClassifier, load_rules
        from cfx.schema import load_entity, load_schema

        self.inp = inp
        w = inp.workload
        with tr.span("schema.load"):
            self.schema = load_schema(inp.file("schema.json"))
            self.entity = load_entity(inp.file("entity.json"), self.schema)
        self.constraints = None
        if w == "external-key":
            with tr.span("constrain.load"):
                self.constraints = constrain.load_constraints(
                    inp.file("constraints.json"), self.schema
                )
        with tr.span("classify.load"):
            if w == "external-key":
                self.backend = ExternalClassifier(inp.external, self.schema)
            elif w == "resp-product":
                self.backend = load_rules(inp.file("rules.txt"), self.schema)
            else:
                self.backend = TableClassifier.from_csv(inp.file("table.csv"), self.schema)
        self.dist = None
        if w == "resp-product":
            with tr.span("score.load"):
                self.dist = score.ProductDistribution.from_csv(
                    inp.file("marginals.csv"), self.schema
                )
        # set-up ends with the first answer; for the external child that
        # includes spawning it and the handshake
        first = "classify.external.spawn" if w == "external-key" else "classify.first"
        if tr.call(first, self.backend.label, self.entity.values) != 1:
            raise RuntimeError("the entity does not have label 1")

    def close(self) -> None:
        if hasattr(self.backend, "close"):
            self.backend.close()

    def search_config(self):
        from cfx.search import SearchConfig

        return SearchConfig(budget=self.inp.budget)


def time_setups(inp: Inputs) -> list[float]:
    """Set-up, repeated for at least SETUP_SLICE_S."""
    samples: list[float] = []
    gc.collect()  # start from a clean heap, as a fresh process does
    deadline = time.perf_counter() + SETUP_SLICE_S
    while not samples or time.perf_counter() < deadline:
        start = time.perf_counter()
        loaded = Loaded(inp, Tracer("setup"))
        samples.append(time.perf_counter() - start)
        loaded.close()
    return samples


def time_cexpl(loaded: Loaded, verdicts: Verdicts) -> float:
    """One ``search.c_explanations`` call with set-up excluded, behind a
    fresh classifier cache as a fresh CLI run would have."""
    from cfx.classify import MemoClassifier
    from cfx.search import c_explanations

    memo = MemoClassifier(loaded.backend)
    gc.collect()
    start = time.perf_counter()
    xs = c_explanations(loaded.schema, memo, loaded.entity,
                        loaded.constraints, loaded.search_config())
    elapsed = time.perf_counter() - start
    verdicts.record(check.c_explanations(loaded.inp.workload, loaded.inp.plan, xs))
    return elapsed


def traced_run(inp: Inputs, run_id: str, per_call: bool = True) -> tuple[bytes, Tracer, dict]:
    """The workload's CLI command replayed in-process through public
    functions, with spans around each call; returns the payload bytes.

    With ``per_call`` off, no proxies are passed in and only the few spans
    around whole phases are kept: the difference in total time is the
    tracing overhead."""
    from cfx import aspgen, constrain, score, search
    from cfx.classify import MemoClassifier

    tr = Tracer(run_id)

    def proxy(inner, methods):
        return Proxy(inner, tr, methods) if per_call else inner

    facts: dict = {}
    with tr.span("run"):
        loaded = Loaded(inp, tr)
        try:
            schema, entity = loaded.schema, loaded.entity
            memo = MemoClassifier(proxy(loaded.backend, {"label": "classify.backend"}))
            clf = proxy(memo, {"label": "classify.label"})
            w = inp.workload
            if w in ("enum-table", "external-key"):
                cs = proxy(loaded.constraints or constrain.empty(schema),
                           {"admissible": "constrain.admissible"})
                with tr.span("search.enumerate"):
                    result = search.enumerate_counterfactuals(
                        schema, clf, entity, cs, loaded.search_config()
                    )
                with tr.span("cli.render"):
                    text = json.dumps(result.to_json_dict(schema), indent=2) + "\n"
                facts = {
                    "search.hits": len(result.explanations),
                    "search.s_minimal": sum(result.s_flags),
                    "search.c_minimal": sum(result.c_flags),
                    "search.levels": result.stats.levels_explored,
                }
            elif w == "resp-product":
                dist = proxy(loaded.dist, {"conditional": "score.conditional"})
                rows = []
                for i in range(len(schema)):
                    with tr.span("score.global_resp"):
                        g = score.global_resp(schema, clf, entity, i, dist)
                    rows.append(_resp_row(schema, entity, g))
                with tr.span("cli.render"):
                    payload = {
                        "entity": entity.id,
                        "mode": "resp",
                        "distribution": "product:" + inp.file("marginals.csv"),
                        "condition": None,
                        "scores": rows,
                    }
                    text = json.dumps(payload, indent=2) + "\n"
            else:
                options = aspgen.CipOptions(classifier_embedding=aspgen.FACTS,
                                            include_weak=True, include_count=True)
                with tr.span("aspgen.emit"):
                    text = aspgen.emit_cip(schema, entity, loaded.backend, options).text
                with tr.span("aspgen.lint"):
                    lint = aspgen.lint_cip(text)
                facts = {"lint_problems": len(lint)}
        finally:
            loaded.close()
    return text.encode(), tr, facts


def _resp_row(schema, entity, g) -> dict:
    from cfx.score import fraction_str

    return {
        "feature": schema.feature(g.feature).name,
        "value": entity.values[g.feature],
        "score": fraction_str(g.score),
        "score_decimal": float(g.score),
        "gamma": None if g.gamma is None else {
            schema.feature(j).name: v for j, v in zip(g.gamma, g.gamma_values)
        },
        "truncated": g.truncated,
    }


def layer_metrics(inp: Inputs, payload: bytes, tr: Tracer, facts: dict) -> dict:
    s = by_name(tr.spans)  # names without spans read as zero
    queries, backend = s["classify.label"].count, s["classify.backend"].count
    external = inp.workload == "external-key"
    rtts = sorted(s["classify.backend"].durations) if external else []
    m = {
        "cli.render_s": s["cli.render"].total,
        "schema.load_s": s["schema.load"].total,
        "classify.load_s": s["classify.load"].total,
        "classify.external.spawn_s": s["classify.external.spawn"].total,
        "classify.queries": queries,
        "classify.backend_calls": backend,
        "classify.hit_ratio": 1 - backend / queries if queries else 0.0,
        "classify.label_s": s["classify.label"].total,
        "classify.external.round_trips": len(rtts),
        "classify.external.rtt_us_p50": statistics.median(rtts) * 1e6 if rtts else 0.0,
        "classify.external.rtt_us_max": rtts[-1] * 1e6 if rtts else 0.0,
        "constrain.checks": s["constrain.admissible"].count,
        "constrain.rejected": tr.false_returns["constrain.admissible"],
        "constrain.admissible_s": s["constrain.admissible"].total,
        "search.enumerate_s": s["search.enumerate"].total,
        "search.self_s": s["search.enumerate"].self_total,
        "search.candidates": s["constrain.admissible"].count,
        "score.global_resp_s": s["score.global_resp"].total,
        "score.conditional_calls": s["score.conditional"].count,
        "score.conditional_s": s["score.conditional"].total,
        "aspgen.emit_s": s["aspgen.emit"].total,
        "aspgen.lint_s": s["aspgen.lint"].total,
        "aspgen.program_bytes": len(payload) if inp.workload == "emit-facts" else 0,
        "run_s": s["run"].total,
    }
    for name in ("search.hits", "search.s_minimal", "search.c_minimal", "search.levels"):
        m[name] = facts.get(name, 0)
    return m


def measure_startup() -> list[tuple[float, float, float]]:
    """Interpreter start plus ``import cfx.cli``: (seconds, start, end)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import cfx.cli"
    samples = []
    for _ in range(STARTUP_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        end = time.perf_counter()
        samples.append((end - start, start, end))
    return samples


def is_time(name: str) -> bool:
    return name.endswith("_s") or "_us_" in name


# --- the two modes -----------------------------------------------------------------


def end_to_end(inp: Inputs, seconds: float) -> tuple[dict, Verdicts, list[str]]:
    # CLI runs and the in-process measurements take turns over the whole
    # window, so every metric sees the same stretch of machine time; each
    # measurement is scaled by the probes the monitor took during it
    verdicts = Verdicts(inp)
    # per metric: (seconds, start, end of the stretch that measured them)
    timed: dict[str, list[tuple[float, float, float]]] = {
        "wall_s": [], "setup_s": [], "cexpl_s": []
    }
    rss: list[float] = []

    def mark(name: str, samples: list[float], start: float) -> None:
        end = time.perf_counter()
        timed[name].extend((x, start, end) for x in samples)

    loaded = Loaded(inp, Tracer("cexpl"))
    try:
        with speed.Monitor(WORK / "speed.json") as monitor:
            deadline = time.perf_counter() + seconds
            while len(rss) < MIN_SAMPLES or time.perf_counter() < deadline:
                start = time.perf_counter()
                run = run_cli(inp)
                mark("wall_s", [run.wall_s], start)
                verdicts.judge(run)
                rss.append(run.rss_mb)
                start = time.perf_counter()
                setups = time_setups(inp)
                mark("setup_s", setups, start)
                start = time.perf_counter()
                cexpl = time_cexpl(loaded, verdicts)
                mark("cexpl_s", [cexpl], start)
    finally:
        loaded.close()
    raw = {name: [x for x, _, _ in xs] for name, xs in timed.items()}
    scaled = {name: [monitor.scaled(*t) for t in xs] for name, xs in timed.items()}
    metrics = {name: statistics.median(xs) for name, xs in scaled.items()}
    metrics["vectors_per_s"] = gen.SPACE / metrics["wall_s"]
    metrics["peak_rss_mb"] = statistics.median(rss)
    tail_s, tail_note = tail(scaled["wall_s"])
    notes = [
        f"{name}: median of {len(xs)} scaled samples; raw median "
        f"{statistics.median(raw[name]):.6f} s"
        for name, xs in scaled.items()
    ]
    # the tail is the slow phase of the machine: printed, not gated
    notes.append(f"wall_s_tail: {tail_s:.6f} s scaled, {tail_note}")
    return metrics, verdicts, notes


def per_layer(inp: Inputs, seconds: float, seed: int) -> tuple[dict, Verdicts, list[str]]:
    verdicts = Verdicts(inp)
    tracers: list[Tracer] = []
    # per traced run: its metrics and the stretches of the traced and the
    # untraced in-process run
    rows: list[tuple[dict, tuple[float, float], tuple[float, float]]] = []
    with speed.Monitor(WORK / "speed.json") as monitor:
        startups = measure_startup()
        deadline = time.perf_counter() + seconds
        while len(rows) < 1 or time.perf_counter() < deadline:
            run = run_cli(inp)
            if not verdicts.judge(run):
                break
            start = time.perf_counter()
            payload, tr, facts = traced_run(inp, f"{inp.workload}-{seed}-{len(rows)}")
            traced_at = (start, time.perf_counter())
            tracers.append(tr)
            m = layer_metrics(inp, payload, tr, facts)
            start = time.perf_counter()
            plain_payload, plain, _ = traced_run(inp, "plain", per_call=False)
            plain_at = (start, time.perf_counter())
            m["plain_s"] = by_name(plain.spans)["run"].total
            problems = []
            if not payload == plain_payload == run.stdout:
                problems.append("in-process payload differs from the CLI's stdout")
            traced = (m["classify.queries"], m["classify.backend_calls"])
            if traced != run.manifest_counts():
                problems.append(
                    f"traced query/backend counts {traced} differ from the manifest's "
                    f"{run.manifest_counts()}"
                )
            if facts.get("lint_problems"):
                problems.append("lint_cip reported problems")
            verdicts.record(problems)
            rows.append((m, traced_at, plain_at))
    with open(WORK / f"trace-{inp.workload}-{seed}.jsonl", "w") as fh:
        for tr in tracers:
            tr.dump(fh)
    scaled = []
    for m, traced_at, plain_at in rows:
        # times are scaled as in end_to_end
        factor = monitor.scaled(1.0, *traced_at)
        row = {k: v * factor if is_time(k) else v for k, v in m.items()}
        row["plain_s"] = monitor.scaled(m["plain_s"], *plain_at)
        scaled.append(row)
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    if scaled:
        for k in scaled[0]:
            # counts repeat exactly: median_low keeps them whole
            pick = statistics.median if is_time(k) else statistics.median_low
            metrics[k] = pick([r[k] for r in scaled])
        metrics["trace.overhead_s"] = metrics.pop("run_s") - metrics.pop("plain_s")
    metrics["cli.startup_s"] = statistics.median(monitor.scaled(*s) for s in startups)
    notes = [
        f"per-layer times: median of {len(rows)} traced in-process runs, scaled",
        "trace.overhead_s: traced minus untraced in-process run of the same calls",
    ]
    return metrics, verdicts, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not (SRC / "cfx" / "cli.py").is_file():
        print(f"perfbench: no cfx sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    # One CPU for the harness and everything it starts. The external child
    # and the CLI trade one line per query; on a shared host, waking a
    # process on the other vCPU stalls whenever that vCPU is descheduled.
    # Pinned, external-key CLI runs took 0.64 s (IQR/median 0.13) against
    # 1.69 s (0.45) unpinned, alternating on the same 2-vCPU machine; the
    # single-process workloads did not change.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    inp = make_inputs(args.workload, args.seed)

    if args.trace:
        metrics, verdicts, notes = per_layer(inp, args.seconds, args.seed)
        units = PER_LAYER_UNITS
    else:
        metrics, verdicts, notes = end_to_end(inp, args.seconds)
        units = END_TO_END_UNITS
    failed_ratio = verdicts.failed / verdicts.attempted
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:32} {metrics[name]:>16.6f} {unit}")
    print(f"  {'failed_ratio':32} {failed_ratio:>16.6f} ratio "
          f"({verdicts.failed} of {verdicts.attempted})")
    for note in notes:
        print(f"  {note}")
    for problem in list(dict.fromkeys(verdicts.problems))[:20]:
        print(f"  FAILED: {problem}")
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
