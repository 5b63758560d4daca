"""Output checks for the benchmark workloads.

Each check compares one CLI payload against a reference that does not come
from ``cfx``: a closed form, or a brute-force sweep of the product space
with the generator's own label function. A check returns a list of
problems; an empty list means the payload is right.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import product
from math import comb

from gen import DOMAIN, ENTITY, N, NAMES, SPACE, Plan, key_label, majority_label

HALF = (N + 1) // 2  # smallest number of changes that flips the majority label
ENUM_TOTAL = sum(comb(N, k) * 2**k for k in range(HALF, N + 1))
ENUM_MINIMAL = comb(N, HALF) * 2**HALF


def _changed(cf) -> dict:
    return {NAMES[i]: ENTITY[i] for i in range(N) if cf[i] != ENTITY[i]}


def _explain_shape(payload: dict, problems: list[str]) -> list[dict]:
    if payload.get("entity") != "e" or payload.get("values") != list(ENTITY):
        problems.append("entity echo differs")
    if payload.get("exhausted") is not True:
        problems.append("exhausted is not true")
    if payload.get("no_counterfactual") is not False:
        problems.append("no_counterfactual is not false")
    xs = payload.get("explanations", [])
    for x in xs:
        cf = tuple(x["counterfactual"])
        if x["changed"] != _changed(cf) or x["cardinality"] != len(x["changed"]):
            problems.append(f"changed/cardinality wrong for {cf}")
            break
    if len({tuple(x["counterfactual"]) for x in xs}) != len(xs):
        problems.append("duplicate counterfactuals")
    return xs


def enum_table(stdout: str, plan: Plan) -> list[str]:
    problems: list[str] = []
    payload = json.loads(stdout)
    xs = _explain_shape(payload, problems)
    if len(xs) != ENUM_TOTAL:
        problems.append(f"{len(xs)} explanations, expected {ENUM_TOTAL}")
    if payload.get("min_cardinality") != HALF:
        problems.append("min_cardinality differs")
    minimal = 0
    for x in xs:
        cf = tuple(x["counterfactual"])
        if majority_label(cf) != 0:
            problems.append(f"{cf} does not have label 0")
            break
        want = x["cardinality"] == HALF
        minimal += want
        if x["s_minimal"] != want or x["c_minimal"] != want:
            problems.append(f"minimality flags wrong for {cf}")
            break
    if minimal != ENUM_MINIMAL:
        problems.append(f"{minimal} minimal explanations, expected {ENUM_MINIMAL}")
    return problems


def external_hits(plan: Plan) -> set[tuple[str, ...]]:
    """Brute force: admissible label-0 vectors of the whole space."""
    return {
        vec
        for vec in product(DOMAIN, repeat=N)
        if vec != ENTITY and plan.admissible(vec) and key_label(vec, plan.keys) == 0
    }


def external_key(stdout: str, plan: Plan) -> list[str]:
    problems: list[str] = []
    payload = json.loads(stdout)
    xs = _explain_shape(payload, problems)
    if {tuple(x["counterfactual"]) for x in xs} != external_hits(plan):
        problems.append("counterfactuals differ from the brute-force hits")
    keys = {NAMES[i] for i in plan.keys}
    for x in xs:
        want = set(x["changed"]) == keys
        if x["s_minimal"] != want or x["c_minimal"] != want:
            problems.append(f"minimality flags wrong for {x['counterfactual']}")
            break
    if sum(x["s_minimal"] for x in xs) != 1:
        problems.append("expected exactly one s-minimal explanation")
    return problems


def resp_scores(plan: Plan) -> list[Fraction]:
    """Closed form (1 - m_f(0)) / (1 + |gamma|) with |gamma| = 4: moving four
    other features off 0 leaves exactly five 0s, so resampling f drops the
    label with mass 1 - m_f(0), and no smaller contingency set can."""
    return [(1 - marg[0]) / HALF for marg in plan.marginals]


def resp_product(stdout: str, plan: Plan) -> list[str]:
    problems: list[str] = []
    payload = json.loads(stdout)
    rows = payload.get("scores", [])
    if [r.get("feature") for r in rows] != list(NAMES):
        return ["score rows do not list f0..f8 in order"]
    for i, (row, want) in enumerate(zip(rows, resp_scores(plan))):
        if row["score"] != f"{want.numerator}/{want.denominator}":
            problems.append(f"{NAMES[i]}: score {row['score']}, expected {want}")
        if row["score_decimal"] != float(want) or row["value"] != ENTITY[i]:
            problems.append(f"{NAMES[i]}: decimal score or value differs")
        gamma = row["gamma"] or {}
        if (
            len(gamma) != HALF - 1
            or NAMES[i] in gamma
            or any(v == ENTITY[0] for v in gamma.values())
            or row["truncated"] is not False
        ):
            problems.append(f"{NAMES[i]}: contingency set is not 4 moved features")
    return problems


_CLS_FACT = re.compile(r"\bcls\(([0-9,]+)\)\.")


def emit_facts(stdout: str, plan: Plan) -> list[str]:
    problems: list[str] = []
    facts = _CLS_FACT.findall(stdout)
    if len(facts) != SPACE:
        problems.append(f"{len(facts)} cls facts, expected one per row ({SPACE})")
    want = [",".join([*vec, str(majority_label(vec))]) for vec in plan.rows]
    if facts != want:
        problems.append("cls facts differ from the table rows")
    if stdout.count("\n:~ ") != N:
        problems.append("expected one weak constraint per feature")
    if "invResp(E,M) :- #count{" not in stdout:
        problems.append("change-count rule missing")
    return problems


def c_explanations(workload: str, plan: Plan, xs) -> list[str]:
    """Checks the explanations ``search.c_explanations`` returned in-process."""
    if workload == "external-key":
        want = {plan.keys}
        got = {tuple(sorted(x.changed_indices)) for x in xs}
    else:  # the majority label: every 5-subset of features, 2 values each
        if any(x.cardinality != HALF for x in xs):
            return ["c_explanations returned a non-minimal explanation"]
        want = ENUM_MINIMAL
        got = len({x.counterfactual.values for x in xs})
    return [] if got == want else [f"c_explanations gave {got}, expected {want}"]


CHECKS = {
    "enum-table": enum_table,
    "external-key": external_key,
    "resp-product": resp_product,
    "emit-facts": emit_facts,
}
