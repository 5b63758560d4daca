"""Command line front end.

One binary, four subcommands: ``explain`` enumerates counterfactual
explanations, ``score`` reports responsibility scores (deterministic by
default, probabilistic with --prob), ``emit-asp`` renders the intervention
program, ``classify`` prints a single label.

Contract: stdout carries the payload only; diagnostics and the run manifest
(one JSON line with config echo, classifier call counts, writes to an
external child and wall time) go to stderr. Payloads are pure functions of
the input files, so re-running a command reproduces stdout byte for byte.

Exit codes: 0 success, 1 usage, 2 invalid input (including an entity that
already has label 0) or a payload that stdout, or the temporary file explain
writes it to first, cannot take, 3 no counterfactual
exists (proven: the search was not truncated), 4 classifier backend failure,
5 inconclusive (a budget or bound truncated the search before it found
anything, so nothing is proven).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import sys
import time
from pathlib import Path

from . import __version__, constrain, search
from .classify import (
    ExternalClassifier,
    MemoClassifier,
    RuleClassifier,
    TableClassifier,
    load_rules,
)
from .errors import BackendError, InputError
from .schema import Entity, FeatureSchema, entities_from_csv, load_entity, load_schema

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NO_COUNTERFACTUAL = 3
EXIT_BACKEND = 4
EXIT_INCONCLUSIVE = 5

# explain copies its JSON from a temporary file to stdout this many
# characters at a time; on enum-table, pieces of 1 MiB took 3 ms longer
SPOOL_PIECE = 1 << 16


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is taken by input validation here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="cfx", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, runs_classifier: bool = True) -> None:
        p.add_argument("--schema", required=True, help="schema JSON file")
        p.add_argument("--entity", required=True, help="entity JSON or CSV file")
        p.add_argument("--id", help="entity id to pick from a CSV file")
        group = p.add_mutually_exclusive_group(required=runs_classifier)
        group.add_argument("--table", help="truth-table CSV file")
        group.add_argument("--rules", help="rule DSL file")
        if runs_classifier:
            group.add_argument(
                "--external", metavar="CMD", help="external classifier command"
            )

    def searchy(p: _Parser) -> None:
        p.add_argument("--constraints", help="constraints JSON file")
        p.add_argument("--max-card", type=int, help="cardinality bound")
        p.add_argument("--budget", type=int, help="classifier call budget")
        p.add_argument(
            "--format", choices=("json", "table"), default="json", help="output format"
        )

    p_explain = sub.add_parser("explain", help="enumerate counterfactual explanations")
    common(p_explain)
    searchy(p_explain)

    p_score = sub.add_parser("score", help="responsibility scores per feature value")
    common(p_score)
    searchy(p_score)
    p_score.add_argument(
        "--prob",
        metavar="uniform|product:FILE|empirical:FILE",
        help="population distribution; switches to the probabilistic score, "
        "where --max-card N bounds contingency sets to N-1 features",
    )
    p_score.add_argument(
        "--condition", metavar="FILE", help="denial constraints conditioning --prob"
    )

    p_emit = sub.add_parser(
        "emit-asp",
        help="render the intervention program",
        description="The classifier is embedded as facts (--table), as rules "
        "(--rules), or as an external predicate stub (neither).",
    )
    common(p_emit, runs_classifier=False)
    p_emit.add_argument("--constraints", help="constraints JSON file")
    # literal choices keep cfx.aspgen out of every other command's start-up;
    # a test ties them to aspgen.DIALECTS and (aspgen.INDICES, aspgen.NAMES)
    p_emit.add_argument(
        "--dialect",
        choices=("dlv-complex", "asp-core-2"),
        default="dlv-complex",
    )
    p_emit.add_argument("--weak", action="store_true", help="add weak constraints")
    p_emit.add_argument("--count", action="store_true", help="add the change-count rule")
    p_emit.add_argument("--shift", action="store_true", help="shift the disjunctive rule")
    p_emit.add_argument(
        "--feature-tokens",
        choices=("indices", "names"),
        default="indices",
        help="second argument of expl atoms",
    )
    p_emit.add_argument("--out", help="write the program here; print the section index")

    p_classify = sub.add_parser("classify", help="print the entity's label")
    common(p_classify)

    return parser


def main(argv=None) -> int:
    # A run's data (a loaded table, the walk's tuples, the memo) holds no
    # reference cycles, so the cyclic collector would only re-scan it; it is
    # off for this call, and back on after it only if it was on before.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if collecting:
            gc.enable()


def _main(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    manifest = {
        "command": args.command,
        "inputs": {},
        "config": {},
        "engine_version": __version__,
        "classifier_calls": 0,
        "backend_calls": 0,
    }
    try:
        code = _dispatch(args, manifest)
        # a buffered payload that cannot be written fails here, not at exit
        sys.stdout.flush()
    except InputError as exc:
        print(f"cfx: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # only writes to stdout raise it unwrapped
        print(f"cfx: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        # a closed stream drops what it could not write, so the flush at
        # exit cannot fail again
        with contextlib.suppress(OSError):
            sys.stdout.close()
        return EXIT_INPUT
    except BackendError as exc:
        print(f"cfx: classifier backend failure: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    finally:
        manifest["wall_time_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
        print(json.dumps({"manifest": manifest}), file=sys.stderr)
    return code


def entrypoint() -> None:  # console script
    sys.exit(main())


def _dispatch(args, manifest: dict) -> int:
    schema = load_schema(args.schema)
    entity = _load_entity(args, schema)
    manifest["inputs"] = {
        "schema": args.schema,
        "entity": args.entity,
        "table": getattr(args, "table", None),
        "rules": getattr(args, "rules", None),
        "external": getattr(args, "external", None),
        "constraints": getattr(args, "constraints", None),
    }
    constraints = None
    if getattr(args, "constraints", None) is not None:
        constraints = constrain.load_constraints(args.constraints, schema)

    backend = _build_backend(args, schema)
    if args.command == "emit-asp":
        return _cmd_emit_asp(args, schema, entity, backend, constraints, manifest)

    # a walk never asks one vector twice, so a memo would only miss; only
    # --prob repeats queries: each feature's walk asks what earlier ones did
    repeats = args.command == "score" and args.prob is not None
    classifier = MemoClassifier(backend) if repeats else _Counted(backend)
    try:
        if args.command == "classify":
            sys.stdout.write(f"{classifier.label(entity.values)}\n")
            code = EXIT_OK
        elif args.command == "explain":
            code = _cmd_explain(args, schema, classifier, entity, constraints, manifest)
        else:
            code = _cmd_score(args, schema, classifier, entity, constraints, manifest)
    finally:
        manifest["classifier_calls"] = classifier.queries
        manifest["backend_calls"] = classifier.backend_calls
        if isinstance(backend, ExternalClassifier):
            backend.close()
            manifest["external_writes"] = backend.writes
    return code


class _Counted:
    """``backend`` behind a count of its ``label`` calls, a call that raises
    included. Its ``announce``, if it has one, is passed straight through."""

    def __init__(self, backend):
        self.queries = 0
        self._label = backend.label
        if hasattr(backend, "announce"):
            self.announce = backend.announce

    @property
    def backend_calls(self) -> int:
        return self.queries

    def label(self, values):
        self.queries += 1
        return self._label(values)


def _load_entity(args, schema: FeatureSchema) -> Entity:
    path = Path(args.entity)
    if path.suffix.lower() == ".csv":
        rows = entities_from_csv(path, schema)
        if args.id is not None:
            rows = [e for e in rows if e.id == args.id]
            if len(rows) != 1:
                raise InputError(
                    f"--id {args.id!r} must match exactly one row of {path}, "
                    f"matches {len(rows)}"
                )
        elif len(rows) != 1:
            raise InputError(f"{path} holds {len(rows)} entities; pick one with --id")
        return rows[0]
    if args.id is not None:
        raise InputError("--id picks a row of a CSV entity file; drop it for JSON")
    return load_entity(path, schema)


def _build_backend(args, schema: FeatureSchema):
    if args.table is not None:
        backend = TableClassifier.from_csv(args.table, schema)
        covered, total = backend.coverage()
        if covered < total:
            print(
                f"cfx: note: truth table covers {covered} of {total} vectors; "
                "queries outside it fail",
                file=sys.stderr,
            )
        return backend
    if args.rules is not None:
        return load_rules(args.rules, schema)
    external = getattr(args, "external", None)  # emit-asp has no --external
    return None if external is None else ExternalClassifier(external, schema)


def _search_config(args, manifest: dict) -> search.SearchConfig:
    budget = args.budget
    if budget is None and args.external is not None:
        budget = 10000  # keep runaway child processes bounded by default
    cfg = search.SearchConfig(max_cardinality=args.max_card, budget=budget)
    manifest["config"] = {"max_cardinality": cfg.max_cardinality, "budget": cfg.budget}
    return cfg


def _outcome(found: bool, proven: bool) -> int:
    """Exit code of a search or score: something found, nothing there
    (proven by an untruncated walk), or nothing found and nothing proven."""
    if found:
        return EXIT_OK
    return EXIT_NO_COUNTERFACTUAL if proven else EXIT_INCONCLUSIVE


def _cmd_explain(args, schema, classifier, entity, constraints, manifest) -> int:
    cfg = _search_config(args, manifest)
    if args.format == "table":
        # the column widths need every row, so the table renders the collection
        result = search.enumerate_counterfactuals(schema, classifier, entity, constraints, cfg)
        sys.stdout.write(_explain_table(schema, result))
        return _outcome(bool(result.hits), result.exhausted)
    import tempfile

    walk = search.Walk(schema, classifier, entity, constraints, cfg)
    # The rows go to an unnamed temporary file as the walk finds them, and
    # reach stdout only once it has ended, so a run that fails prints
    # nothing. The backends wrap their own OSErrors, so one raised here but
    # not by a write to stdout is the temporary file's.
    writing = False
    try:
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
            found = search.write_json(spool, schema, walk, walk)
            spool.seek(0)
            while piece := spool.read(SPOOL_PIECE):
                writing = True
                sys.stdout.write(piece)
                writing = False
    except OSError as exc:
        if writing:
            raise
        raise InputError(
            f"cannot hold the payload in a temporary file: {exc.strerror or exc}"
        ) from None
    return _outcome(bool(found), walk.exhausted)


def _cmd_score(args, schema, classifier, entity, constraints, manifest) -> int:
    from . import score as score_mod

    if args.prob is None:
        if args.condition is not None:
            raise InputError("--condition needs --prob")
        cfg = _search_config(args, manifest)
        report = score_mod.x_resp(schema, classifier, entity, constraints, cfg)
        payload = report.to_json_dict(schema)
        title = "witness (changed)"
        changes = [s["witness"] and s["witness"]["changed"] for s in payload["scores"]]
        found = any(fs.score > 0 for fs in report.scores)
        proven = report.authoritative
    else:
        # The contingency walk runs no search: a call budget or an
        # admissibility filter would be silently ignored, so both are refused.
        if args.budget is not None:
            raise InputError("--budget does not apply to --prob")
        if constraints is not None:
            raise InputError("--constraints does not apply to --prob; use --condition")
        max_card = search.SearchConfig(max_cardinality=args.max_card).max_cardinality
        # a counterfactual changes the contingency set plus the scrutinized feature
        max_gamma = None if max_card is None else max_card - 1
        manifest["config"] = {
            "max_cardinality": max_card,
            "prob": args.prob,
            "condition": args.condition,
        }
        dist = _build_distribution(args, schema)
        results = [
            score_mod.global_resp(schema, classifier, entity, i, dist, max_gamma)
            for i in range(len(schema))
        ]
        payload = {
            "entity": entity.id,
            "mode": "resp",
            "distribution": args.prob,
            "condition": args.condition,
            "scores": [g.to_json_dict(schema, entity) for g in results],
        }
        title = "contingency"
        changes = [s["gamma"] for s in payload["scores"]]
        found = any(g.score > 0 for g in results)
        proven = not any(g.truncated for g in results)
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(_score_table(payload["scores"], title, changes))
    return _outcome(found, proven)


def _build_distribution(args, schema: FeatureSchema):
    from . import score as score_mod

    spec = args.prob
    if spec == "uniform":
        dist = score_mod.UniformDistribution(schema)
    elif spec.startswith("product:"):
        dist = score_mod.ProductDistribution.from_csv(spec.split(":", 1)[1], schema)
    elif spec.startswith("empirical:"):
        dist = score_mod.EmpiricalDistribution.from_csv(spec.split(":", 1)[1], schema)
    else:
        raise InputError(
            f"--prob must be uniform, product:FILE or empirical:FILE, got {spec!r}"
        )
    if args.condition is not None:
        cs = constrain.load_constraints(args.condition, schema)
        if cs.actionability or cs.onehot:
            raise InputError(
                f"{args.condition}: only denial constraints can condition a distribution"
            )
        if not cs.denials:
            raise InputError(f"{args.condition}: holds no denial constraints")
        dist = score_mod.ConditionedDistribution(dist, cs.denials)
    return dist


def _cmd_emit_asp(args, schema, entity, backend, constraints, manifest) -> int:
    from . import aspgen

    if isinstance(backend, TableClassifier):
        embedding = aspgen.FACTS
    elif isinstance(backend, RuleClassifier):
        embedding = aspgen.RULES
    else:
        embedding = aspgen.EXTERNAL_STUB
    options = aspgen.CipOptions(
        dialect=args.dialect,
        classifier_embedding=embedding,
        include_weak=args.weak,
        include_count=args.count,
        shift=args.shift,
        feature_tokens=args.feature_tokens,
        hard_constraints=constraints,
    )
    manifest["config"] = {
        "dialect": args.dialect,
        "classifier_embedding": embedding,
        "weak": args.weak,
        "count": args.count,
        "shift": args.shift,
        "feature_tokens": args.feature_tokens,
    }
    program = aspgen.emit_cip(schema, entity, backend, options)
    if args.out is not None:
        try:
            Path(args.out).write_text(program.text, encoding="utf-8")
        except OSError as exc:
            raise InputError(
                f"cannot write {args.out or repr('')}: {exc.strerror or exc}"
            ) from None
        sys.stdout.write(json.dumps(program.section_index(), indent=2) + "\n")
    else:
        sys.stdout.write(program.text)
    return EXIT_OK


# --- text tables ---------------------------------------------------------------


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _explain_table(schema: FeatureSchema, result: search.SearchResult) -> str:
    changed = [f"{f.name}={v}" for f, v in zip(schema.features, result.entity.values)]
    rows = [
        [
            ", ".join([changed[i] for i in idxs]),
            ",".join(cand),
            str(len(idxs)),
            "yes" if s else "no",
            "yes" if c else "no",
        ]
        for (idxs, cand, s), c in zip(result.hits, result.c_flags)
    ]
    return _render_table(
        ["changed (original values)", "counterfactual", "card", "s-min", "c-min"], rows
    )


def _score_table(scores: list[dict], title: str, changes: list[dict | None]) -> str:
    """One row per score; the last column joins that row's feature=value pairs."""
    rows = []
    for s, changed in zip(scores, changes):
        pairs = ", ".join(f"{k}={v}" for k, v in (changed or {}).items())
        rows.append([s["feature"], s["value"], s["score"], pairs])
    return _render_table(["feature", "value", "score", title], rows)


if __name__ == "__main__":
    entrypoint()
