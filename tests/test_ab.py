"""The A/B summary of bench/ab.py, fed canned perfbench result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BETTER = {"wall_s": "lower", "vectors_per_s": "higher"}


def line(wall, vps, correct=True):
    """The last line perfbench/run.py prints, after its metric lines."""
    return "  wall_s 0.1 s\n" + json.dumps({
        "correct": correct,
        "attempted": 5,
        "failed": 0 if correct else 1,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "vectors_per_s": {"value": vps, "unit": "1/s"},
        },
    })


def pairs(base, change):
    return [
        (ab.last_json(line(*b)), ab.last_json(line(*c))) for b, c in zip(base, change)
    ]


def rows_by_metric(rows):
    return {row["metric"]: row for row in rows}


class TestSummary:
    def test_nine_wins_and_a_gap_past_the_spread_claim(self):
        base = [(0.140 + 0.001 * i, 100.0 + i) for i in range(10)]
        change = [(0.110 + 0.001 * i, 120.0 + i) for i in range(9)] + [(0.150, 90.0)]
        rows = rows_by_metric(ab.summarize(pairs(base, change), BETTER))
        wall = rows["wall_s"]
        assert (wall["wins"], wall["pairs"], wall["claim"]) == (9, 10, True)
        assert wall["base"] == pytest.approx((0.14225, 0.1445, 0.14675))
        assert rows["vectors_per_s"]["wins"] == 9
        assert rows["vectors_per_s"]["claim"] is True

    def test_eight_wins_do_not_claim(self):
        base = [(0.140, 100.0)] * 10
        change = [(0.100, 100.0)] * 8 + [(0.150, 100.0)] * 2
        rows = rows_by_metric(ab.summarize(pairs(base, change), BETTER))
        assert (rows["wall_s"]["wins"], rows["wall_s"]["claim"]) == (8, False)

    def test_ties_count_for_neither_side(self):
        base = [(0.140, 100.0)] * 10
        rows = rows_by_metric(ab.summarize(pairs(base, base), BETTER))
        assert [(r["wins"], r["claim"]) for r in rows.values()] == [(0, False)] * 2

    def test_a_gap_inside_the_base_spread_does_not_claim(self):
        # the change wins every pair, but by less than the base's own
        # quartile distance
        base = [(0.100 + 0.010 * (i % 2), 100.0) for i in range(10)]
        change = [(b - 0.001, 100.0) for b, _ in base]
        rows = rows_by_metric(ab.summarize(pairs(base, change), BETTER))
        assert (rows["wall_s"]["wins"], rows["wall_s"]["claim"]) == (10, False)

    def test_a_change_failing_more_operations_does_not_claim(self):
        # the change wins every pair by far, but one of its runs is incorrect
        base = [(0.140, 100.0)] * 10
        change = [(0.100, 150.0)] * 10
        runs = pairs(base, change)
        runs[3] = (runs[3][0], ab.last_json(line(0.100, 150.0, correct=False)))
        rows = rows_by_metric(ab.summarize(runs, BETTER))
        assert [(r["wins"], r["claim"]) for r in rows.values()] == [(10, False)] * 2
        # the same failure on the base's side lets the claim stand
        runs[3] = (ab.last_json(line(0.140, 100.0, correct=False)), runs[3][1])
        rows = rows_by_metric(ab.summarize(runs, BETTER))
        assert [(r["wins"], r["claim"]) for r in rows.values()] == [(10, True)] * 2

    def test_render_names_every_metric(self):
        rows = ab.summarize(pairs([(0.14, 100.0)], [(0.11, 120.0)]), BETTER)
        text = ab.render(rows)
        assert [ln.split()[0] for ln in text.splitlines()[1:]] == list(BETTER)
        assert text.splitlines()[1].endswith(" 1/1  yes")
