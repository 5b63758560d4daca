"""Responsibility scores for feature values.

The deterministic score of a feature value is the reciprocal of the size of
the smallest subset-minimal explanation containing it, or 0 when none does.
A score of 1 marks a counterfactual value (flipping it alone suffices); any
positive score marks an actual cause. All arithmetic is exact rational.

The probabilistic generalization replaces "flipping alone suffices" with an
expected label drop under a population distribution: fix a contingency set
of other features at new values, then compare the label of the intervened
entity against the expected label when the scrutinized feature is resampled
from the distribution conditioned on everything else. The global score
maximizes that quantity over contingency sets of minimum size.

Distributions: uniform over the product space, fully factorized (product of
per-feature marginals), empirical (frequencies of a sample), and any of
those conditioned on denial constraints (renormalized over the satisfying
event).
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import constrain, search
from .errors import InputError, NothingToExplainError
from .schema import Entity, Explanation, FeatureSchema
from .search import SearchConfig, SearchResult, enumerate_counterfactuals

# refuse to sweep product spaces beyond this when a distribution needs
# full-space enumeration (conditioning mass, sanity sums)
SPACE_ENUMERATION_LIMIT = 1 << 20


class ZeroMassError(InputError):
    """A conditioning event or conditional slice carries no probability."""


_NO_SLICE_MASS = "no probability mass on the slice fixing all other features"


class ConditionError(InputError):
    """A contingency-set precondition does not hold; carries its number."""

    def __init__(self, condition: int, message: str):
        super().__init__(message)
        self.condition = condition


def fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# deterministic score


@dataclass(frozen=True)
class FeatureScore:
    feature: int
    score: Fraction
    witness: Explanation | None

    @property
    def counterfactual_value_explanation(self) -> bool:
        return self.score == 1

    @property
    def actual_value_explanation(self) -> bool:
        return self.score > 0


@dataclass
class RespReport:
    entity: Entity
    scores: list[FeatureScore]
    authoritative: bool

    def to_json_dict(self, schema: FeatureSchema) -> dict:
        out = []
        for fs in self.scores:
            witness = None
            if fs.witness is not None:
                witness = {
                    "changed": {
                        schema.feature(i).name: v for i, v in fs.witness.changed
                    },
                    "counterfactual": list(fs.witness.counterfactual.values),
                    "cardinality": fs.witness.cardinality,
                }
            out.append(
                {
                    "feature": schema.feature(fs.feature).name,
                    "value": self.entity.values[fs.feature],
                    "score": fraction_str(fs.score),
                    "score_decimal": float(fs.score),
                    "witness": witness,
                    "counterfactual_value_explanation": fs.counterfactual_value_explanation,
                    "actual_value_explanation": fs.actual_value_explanation,
                }
            )
        return {
            "entity": self.entity.id,
            "mode": "x-resp",
            "authoritative": self.authoritative,
            "scores": out,
        }


def _report_from_result(
    schema: FeatureSchema, result: SearchResult
) -> RespReport:
    s_set = result.s_set
    scores = []
    for i in range(len(schema)):
        # the s-set runs smallest first, so the first hit is a smallest one
        best = next((x for x in s_set if i in x.changed_indices), None)
        score = Fraction(0) if best is None else Fraction(1, best.cardinality)
        scores.append(FeatureScore(i, score, best))
    return RespReport(result.entity, scores, authoritative=result.exhausted)


def x_resp(
    schema: FeatureSchema,
    classifier,
    entity: Entity,
    constraints: constrain.ConstraintSet | None = None,
    config: SearchConfig | None = None,
) -> RespReport:
    """Reciprocal-size responsibility of every feature value of ``entity``."""
    result = enumerate_counterfactuals(schema, classifier, entity, constraints, config)
    return _report_from_result(schema, result)


def max_resp_features(
    schema: FeatureSchema,
    classifier,
    entity: Entity,
    constraints: constrain.ConstraintSet | None = None,
    config: SearchConfig | None = None,
) -> frozenset[int]:
    """Features attaining the maximum score; empty iff no counterfactual.

    These are exactly the features changed by some minimum-cardinality
    explanation, which is cross-checked against the scores.
    """
    result = enumerate_counterfactuals(schema, classifier, entity, constraints, config)
    from_c = frozenset(i for x in result.c_set for i in x.changed_indices)
    report = _report_from_result(schema, result)
    top = max((fs.score for fs in report.scores), default=Fraction(0))
    from_scores = (
        frozenset(fs.feature for fs in report.scores if fs.score == top)
        if top > 0
        else frozenset()
    )
    assert from_c == from_scores
    return from_c


# ---------------------------------------------------------------------------
# distributions


class Distribution:
    """Probability over the product space; values are exact rationals."""

    def __init__(self, schema: FeatureSchema):
        self.schema = schema

    def prob(self, values: Sequence[str]) -> Fraction:
        raise NotImplementedError

    def support(self) -> Iterator[tuple[str, ...]]:
        """Vectors that may carry mass (a superset is fine)."""
        if self.schema.space_size() > SPACE_ENUMERATION_LIMIT:
            raise InputError(
                "product space too large to enumerate for this distribution"
            )
        return self.schema.iter_space()

    def conditional(
        self, values: Sequence[str], index: int
    ) -> dict[str, Fraction]:
        """Distribution of feature ``index`` given every other value fixed.

        Keyed in domain order. This generic form weighs every value of the
        feature through :meth:`prob`; subclasses whose features are
        independent override it with the closed form, with the same result
        and the same errors.
        """
        base = list(values)
        weights: dict[str, Fraction] = {}
        for v in self.schema.feature(index).domain:
            base[index] = v
            weights[v] = self.prob(tuple(base))
        total = sum(weights.values())
        if total == 0:
            raise ZeroMassError(_NO_SLICE_MASS)
        return {v: w / total for v, w in weights.items()}

    def _check_others(self, values: Sequence[str], index: int) -> tuple[str, ...]:
        """Validate every value but the one at ``index``; return the domain."""
        domain = self.schema.feature(index).domain
        base = list(values)
        base[index] = domain[0]
        self.schema.check_values(base)
        return domain


class UniformDistribution(Distribution):
    def prob(self, values: Sequence[str]) -> Fraction:
        self.schema.check_values(values)
        return Fraction(1, self.schema.space_size())

    def conditional(
        self, values: Sequence[str], index: int
    ) -> dict[str, Fraction]:
        domain = self._check_others(values, index)
        p = Fraction(1, len(domain))
        return dict.fromkeys(domain, p)


class ProductDistribution(Distribution):
    """Independent per-feature marginals.

    Marginal weights are validated to sum to 1 within 1e-9 per feature and
    then renormalized exactly, so the full product space carries mass
    exactly 1.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        marginals: Sequence[dict[str, Fraction | str | float]],
    ):
        super().__init__(schema)
        if len(marginals) != len(schema):
            raise InputError("need one marginal per feature")
        normalized: list[dict[str, Fraction]] = []
        for f, marg in zip(schema.features, marginals):
            weights: dict[str, Fraction] = {}
            for v, w in marg.items():
                if v not in f.domain:
                    raise InputError(
                        f"marginal of {f.name!r} mentions {v!r}, not in its domain"
                    )
                weights[v] = _as_fraction(w, f"marginal of {f.name!r}")
            if any(w < 0 for w in weights.values()):
                raise InputError(f"negative weight in marginal of {f.name!r}")
            total = sum(weights.values(), Fraction(0))
            if abs(total - 1) > Fraction(1, 10**9):
                raise InputError(
                    f"marginal of {f.name!r} sums to {float(total)}, not 1"
                )
            normalized.append(
                {v: weights.get(v, Fraction(0)) / total for v in f.domain}
            )
        self.marginals = normalized

    def prob(self, values: Sequence[str]) -> Fraction:
        self.schema.check_values(values)
        p = Fraction(1)
        for marg, v in zip(self.marginals, values):
            p *= marg[v]
        return p

    def conditional(
        self, values: Sequence[str], index: int
    ) -> dict[str, Fraction]:
        self._check_others(values, index)
        for j, (marg, v) in enumerate(zip(self.marginals, values)):
            if j != index and marg[v] == 0:
                raise ZeroMassError(_NO_SLICE_MASS)
        return dict(self.marginals[index])

    @classmethod
    def from_csv(cls, path: str | Path, schema: FeatureSchema) -> ProductDistribution:
        """Load marginals from CSV rows ``feature,value,probability``."""
        per_feature: list[dict[str, Fraction]] = [dict() for _ in schema.features]
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != [
                "feature",
                "value",
                "probability",
            ]:
                raise InputError(f"{path}: header must be feature,value,probability")
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                where = f"{path}:{lineno}"
                if len(row) != 3:
                    raise InputError(f"{where}: wrong column count")
                name, value, raw = (c.strip() for c in row)
                if name not in schema.names:
                    raise InputError(f"{where}: unknown feature {name!r}")
                idx = schema.index_of(name)
                if value not in schema.feature(idx).domain:
                    raise InputError(
                        f"{where}: marginal of {name!r} mentions {value!r}, "
                        "not in its domain"
                    )
                if value in per_feature[idx]:
                    raise InputError(f"{where}: duplicate entry for {value!r}")
                per_feature[idx][value] = _as_fraction(raw, where)
        return cls(schema, per_feature)


class EmpiricalDistribution(Distribution):
    """Relative frequencies of a finite sample of entities."""

    def __init__(
        self,
        schema: FeatureSchema,
        sample: Iterable[Sequence[str] | Entity],
    ):
        super().__init__(schema)
        counts: Counter[tuple[str, ...]] = Counter()
        for item in sample:
            vec = tuple(item.values if isinstance(item, Entity) else item)
            schema.check_values(vec)
            counts[vec] += 1
        if not counts:
            raise InputError("empirical sample is empty")
        self.counts = counts
        self.total = sum(counts.values())

    def prob(self, values: Sequence[str]) -> Fraction:
        self.schema.check_values(values)
        return Fraction(self.counts.get(tuple(values), 0), self.total)

    def support(self) -> Iterator[tuple[str, ...]]:
        return iter(sorted(self.counts))

    @classmethod
    def from_csv(cls, path: str | Path, schema: FeatureSchema) -> EmpiricalDistribution:
        from .schema import entities_from_csv

        return cls(schema, entities_from_csv(path, schema))


class ConditionedDistribution(Distribution):
    """A base distribution restricted to entities satisfying every denial."""

    def __init__(
        self,
        base: Distribution,
        denials: Iterable[constrain.DenialConstraint],
    ):
        super().__init__(base.schema)
        self.base = base
        self.denials = tuple(denials)
        mass = Fraction(0)
        for vec in base.support():
            if self._satisfies(vec):
                mass += base.prob(vec)
        if mass == 0:
            raise ZeroMassError("conditioning event has zero mass")
        self.mass = mass

    def _satisfies(self, values: Sequence[str]) -> bool:
        return all(not chi.matches(values) for chi in self.denials)

    def prob(self, values: Sequence[str]) -> Fraction:
        self.schema.check_values(values)
        if not self._satisfies(values):
            return Fraction(0)
        return self.base.prob(values) / self.mass

    def support(self) -> Iterator[tuple[str, ...]]:
        return (vec for vec in self.base.support() if self._satisfies(vec))


def _as_fraction(w: Fraction | str | float | int, context: str) -> Fraction:
    if isinstance(w, Fraction):
        return w
    if isinstance(w, int):
        return Fraction(w)
    if isinstance(w, float):
        # exact decimal semantics, not the binary float's exact value; nan
        # and inf fail to parse below
        w = str(w)
    if isinstance(w, str):
        try:
            return Fraction(w)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{context}: cannot parse probability {w!r}") from None
    raise InputError(f"{context}: cannot parse probability {w!r}")


# ---------------------------------------------------------------------------
# probabilistic score


@dataclass(frozen=True)
class GlobalScore:
    feature: int
    score: Fraction
    gamma: tuple[int, ...] | None
    gamma_values: tuple[str, ...] | None
    truncated: bool


def local_resp(
    schema: FeatureSchema,
    classifier,
    entity: Entity,
    f_star: int,
    gamma: Sequence[int],
    values_for_gamma: Sequence[str],
    dist: Distribution,
) -> Fraction:
    """Expected label drop from resampling ``f_star``, damped by |gamma|.

    The contingency set ``gamma`` is frozen at ``values_for_gamma`` first;
    the label of the resulting entity must still be 1. The score is
    (1 - E[label | all features but f_star fixed]) / (1 + |gamma|).
    """
    schema.check_entity(entity)
    schema.feature(f_star)
    gamma = tuple(gamma)
    if len(set(gamma)) != len(gamma):
        raise ConditionError(1, "contingency set repeats a feature")
    if f_star in gamma:
        raise ConditionError(
            1, "the scrutinized feature cannot sit in its own contingency set"
        )
    if len(values_for_gamma) != len(gamma):
        raise ConditionError(2, "one new value per contingency feature required")
    for i, v in zip(gamma, values_for_gamma):
        f = schema.feature(i)
        if v not in f.domain:
            raise ConditionError(2, f"value {v!r} not in domain of {f.name!r}")
        if v == entity.values[i]:
            raise ConditionError(
                2, f"contingency value for {f.name!r} equals the current value"
            )
    if classifier.label(entity.values) != 1:
        raise ConditionError(4, "entity must carry label 1")
    primed = list(entity.values)
    for i, v in zip(gamma, values_for_gamma):
        primed[i] = v
    if classifier.label(tuple(primed)) != 1:
        raise ConditionError(
            4, "the contingency intervention alone must keep label 1"
        )
    return _local_core(classifier, tuple(primed), f_star, len(gamma), dist)


def _local_core(
    classifier,
    primed: tuple[str, ...],
    f_star: int,
    gamma_size: int,
    dist: Distribution,
) -> Fraction:
    cond = dist.conditional(primed, f_star)
    varied = list(primed)
    expected = Fraction(0)
    for v, p in cond.items():
        if p == 0:
            continue
        varied[f_star] = v
        if classifier.label(tuple(varied)) == 1:
            expected += p
    return (1 - expected) / (1 + gamma_size)


def global_resp(
    schema: FeatureSchema,
    classifier,
    entity: Entity,
    f_star: int,
    dist: Distribution,
    max_gamma: int | None = None,
) -> GlobalScore:
    """Maximum local score over contingency sets of minimum size.

    Contingency sets grow from size 0 upward; the first size admitting any
    positive local score wins and the maximum over that size is returned.
    Pairs whose contingency intervention changes the label, and pairs whose
    conditional slice has no mass, do not qualify. A size bound that stops
    the growth before any positive score marks the result truncated.
    """
    schema.check_entity(entity)
    schema.feature(f_star)
    if classifier.label(entity.values) != 1:
        raise NothingToExplainError(
            f"entity {entity.id!r} already has label 0; nothing to explain"
        )
    values = entity.values
    # an empty list at f_star keeps it out of every contingency set
    alternatives = [
        [] if i == f_star else [v for v in f.domain if v != values[i]]
        for i, f in enumerate(schema)
    ]
    n_others = len(schema) - 1
    bound = n_others if max_gamma is None else min(max_gamma, n_others)

    for size in range(0, bound + 1):
        best: tuple[Fraction, tuple[int, ...], tuple[str, ...]] | None = None
        for gamma, primed in search.level_candidates(alternatives, values, size):
            if classifier.label(primed) != 1:
                continue
            try:
                score = _local_core(classifier, primed, f_star, size, dist)
            except ZeroMassError:
                continue
            if score > 0 and (best is None or score > best[0]):
                best = (score, gamma, tuple(primed[i] for i in gamma))
        if best is not None:
            return GlobalScore(
                feature=f_star,
                score=best[0],
                gamma=best[1],
                gamma_values=best[2],
                truncated=False,
            )
    return GlobalScore(
        feature=f_star,
        score=Fraction(0),
        gamma=None,
        gamma_values=None,
        truncated=bound < n_others,
    )
