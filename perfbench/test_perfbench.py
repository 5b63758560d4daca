"""Tests of the benchmark's own parts: python3 -m pytest perfbench -q"""

import copy
import json
import shutil
from fractions import Fraction
from itertools import product

import pytest

import check
import gen
import run
import speed
from spans import Proxy, Tracer, by_name, self_times

SEEDS = (1, 2, 3)


@pytest.fixture
def workdir():
    d = run.WORK / "test"
    shutil.rmtree(d, ignore_errors=True)
    yield d
    shutil.rmtree(d, ignore_errors=True)


def _files(d):
    return {p.relative_to(d).as_posix(): p.read_bytes() for p in sorted(d.rglob("*"))}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workdir, workload):
    gen.write(workload, 7, workdir / "a")
    gen.write(workload, 7, workdir / "b")
    gen.write(workload, 8, workdir / "c")
    a, b, c = (_files(workdir / x) for x in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_sizes_do_not_depend_on_the_seed(workdir):
    sizes = set()
    for seed in SEEDS:
        for workload in gen.WORKLOADS:
            gen.write(workload, seed, workdir / f"{workload}-{seed}")
        p = gen.plan(seed)
        admissible = sum(
            p.admissible(v) for v in product(gen.DOMAIN, repeat=gen.N) if v != gen.ENTITY
        )
        table = (workdir / f"enum-table-{seed}" / "table.csv").read_text().splitlines()
        rules = (workdir / f"resp-product-{seed}" / "rules.txt").read_text().splitlines()
        margs = (workdir / f"resp-product-{seed}" / "marginals.csv").read_text().splitlines()
        sizes.add((len(table), len(rules), len(margs), admissible,
                   len(check.external_hits(p)), len(set(p.keys))))
        assert all(m > 0 for marg in p.marginals for m in marg)
        assert all(sum(marg) == 1 for marg in p.marginals)
    assert sizes == {(gen.SPACE + 1, 127, 28, 5831, 24, gen.N_KEYS)}


# --- checkers: a payload built from the reference passes, a corrupted one fails


def _explain_payload(cfs, minimal):
    xs = []
    for cf in sorted(cfs, key=lambda v: (gen.N - v.count("0"), v)):
        changed = {gen.NAMES[i]: "0" for i in range(gen.N) if cf[i] != "0"}
        flag = minimal(changed)
        xs.append({"changed": changed, "counterfactual": list(cf),
                   "cardinality": len(changed), "s_minimal": flag, "c_minimal": flag})
    return {"entity": "e", "values": list(gen.ENTITY), "explanations": xs,
            "min_cardinality": xs[0]["cardinality"], "no_counterfactual": False,
            "exhausted": True}


def _flip_first_minimal(payload):
    bad = copy.deepcopy(payload)
    x = next(x for x in bad["explanations"] if x["s_minimal"])
    x["s_minimal"] = False
    return bad


def test_enum_table_check():
    p = gen.plan(1)
    cfs = [v for v in product(gen.DOMAIN, repeat=gen.N) if gen.majority_label(v) == 0]
    good = _explain_payload(cfs, lambda ch: len(ch) == check.HALF)
    assert len(good["explanations"]) == check.ENUM_TOTAL == 16832
    assert check.enum_table(json.dumps(good), p) == []
    assert check.enum_table(json.dumps(_flip_first_minimal(good)), p)
    missing = copy.deepcopy(good)
    missing["explanations"].pop()
    assert check.enum_table(json.dumps(missing), p)


def test_external_key_check():
    p = gen.plan(2)
    keys = {gen.NAMES[i] for i in p.keys}
    good = _explain_payload(check.external_hits(p), lambda ch: set(ch) == keys)
    assert check.external_key(json.dumps(good), p) == []
    assert check.external_key(json.dumps(_flip_first_minimal(good)), p)
    truncated = dict(good, exhausted=False)
    assert check.external_key(json.dumps(truncated), p)


def _resp_payload(p):
    rows = []
    for i, score in enumerate(check.resp_scores(p)):
        others = [j for j in range(gen.N) if j != i][: check.HALF - 1]
        rows.append({"feature": gen.NAMES[i], "value": "0",
                     "score": f"{score.numerator}/{score.denominator}",
                     "score_decimal": float(score),
                     "gamma": {gen.NAMES[j]: "1" for j in others}, "truncated": False})
    return {"entity": "e", "mode": "resp", "scores": rows}


def test_resp_product_check():
    p = gen.plan(3)
    good = _resp_payload(p)
    assert check.resp_product(json.dumps(good), p) == []
    bad = copy.deepcopy(good)
    wrong = Fraction(bad["scores"][4]["score"]) + Fraction(1, gen.DENOM)
    bad["scores"][4]["score"] = f"{wrong.numerator}/{wrong.denominator}"
    assert check.resp_product(json.dumps(bad), p)


def test_emit_facts_check():
    p = gen.plan(4)
    facts = " ".join(
        f"cls({','.join(v)},{gen.majority_label(v)})." for v in p.rows
    )
    weak = "".join(f"\n:~ expl(E,{i},X)." for i in range(1, gen.N + 1))
    good = f"% classifier\n{facts}\ninvResp(E,M) :- #count{{I: expl(E,I,_)}} = M.{weak}\n"
    assert check.emit_facts(good, p) == []
    i = good.index(",1).")
    assert check.emit_facts(good[:i] + ",0)." + good[i + 4:], p)


def test_c_explanations_check():
    from types import SimpleNamespace as NS

    p = gen.plan(5)
    keys = NS(changed_indices=frozenset(p.keys), cardinality=gen.N_KEYS)
    assert check.c_explanations("external-key", p, [keys]) == []
    wrong = NS(changed_indices=frozenset(p.keys[1:]), cardinality=gen.N_KEYS - 1)
    assert check.c_explanations("external-key", p, [wrong])
    assert check.c_explanations("enum-table", p, [])


# --- spans


def test_self_time_on_a_hand_built_tree():
    spans = [
        (0, None, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 0, "b", 3.0, 6.0),  # overlaps a: the union counts once
        (3, 1, "c", 2.0, 3.0),  # grandchild: covered by a, not by root
        (4, 0, "d", 9.0, 12.0),  # runs past its parent: clipped
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}
    stats = by_name(spans)
    assert (stats["a"].count, stats["a"].total, stats["a"].self_total) == (1, 3.0, 2.0)


def test_proxy_records_calls_under_the_open_span():
    class Inner:
        schema = "s"

        def admissible(self, x):
            return x > 0

    tr = Tracer("t")
    p = Proxy(Inner(), tr, {"admissible": "constrain.admissible"})
    with tr.span("search.enumerate"):
        results = [p.admissible(x) for x in (1, -1, 2, -2, -3)]
    assert results == [True, False, True, False, False]
    assert p.schema == "s"
    names = [(s[1], s[2]) for s in tr.spans]
    assert names == [(None, "search.enumerate")] + [(0, "constrain.admissible")] * 5
    assert tr.false_returns["constrain.admissible"] == 3


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0
    xs = [float(i) for i in range(30)]
    value, note = run.tail(xs)
    assert value == 19.0 and sum(x > value for x in xs) == 10
    assert note == "p66 of 30 samples"


def test_scaling_counts_the_probes_inside_the_interval():
    monitor = speed.Monitor(run.WORK / "unused.json")
    n = speed.NOMINAL_S
    # probes at t = 0..5: nominal speed, then half speed from t = 3
    monitor.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    monitor.times = [n, n, n, 2 * n, 2 * n, 2 * n]
    assert monitor.scaled(1.0, 0.5, 2.5) == 1.0
    assert monitor.scaled(1.0, 3.5, 5.5) == 0.5
    # half the probes slow: the work is worth three quarters of the time
    assert monitor.scaled(4.0, 0.5, 4.5) == 3.0
    # no probe inside: the neighbours on either side
    assert monitor.scaled(1.0, 2.2, 2.8) == 0.75
