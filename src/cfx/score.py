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
maximizes that quantity over contingency sets of minimum size. Every
distribution gives integer weights, so the local score is an integer pair
(slice mass, mass that loses label 1); candidates of one size, which share
the damping divisor, are ranked by cross-multiplying those pairs, and each
feature gets one ``Fraction``.

Distributions: uniform over the product space, fully factorized (product of
per-feature marginals), empirical (frequencies of a sample), and any of
those conditioned on denial constraints (renormalized over the satisfying
event).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm, prod
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import constrain, search
from .errors import InputError
from .schema import (
    Entity,
    Explanation,
    FeatureSchema,
    Record,
    entities_from_csv,
    in_file,
    read_csv,
    reject_row,
)
from .search import SearchConfig, enumerate_counterfactuals

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


class FeatureScore(Record):
    __slots__ = ("feature", "score", "witness")

    def __init__(self, feature: int, score: Fraction, witness: Explanation | None):
        self.feature = feature
        self.score = score
        self.witness = witness

    @property
    def counterfactual_value_explanation(self) -> bool:
        return self.score == 1

    @property
    def actual_value_explanation(self) -> bool:
        return self.score > 0


class RespReport(Record):
    __slots__ = ("entity", "scores", "authoritative")
    __hash__ = None  # type: ignore[assignment]  # holds a list

    def __init__(self, entity: Entity, scores: list[FeatureScore], authoritative: bool):
        self.entity = entity
        self.scores = scores
        self.authoritative = authoritative

    def to_json_dict(self, schema: FeatureSchema) -> dict:
        out = []
        for fs in self.scores:
            out.append(
                {
                    "feature": schema.feature(fs.feature).name,
                    "value": self.entity.values[fs.feature],
                    "score": fraction_str(fs.score),
                    "score_decimal": float(fs.score),
                    "witness": (
                        None if fs.witness is None else fs.witness.to_json_dict(schema)
                    ),
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


def x_resp(
    schema: FeatureSchema,
    classifier,
    entity: Entity,
    constraints: constrain.ConstraintSet | None = None,
    config: SearchConfig | None = None,
) -> RespReport:
    """Reciprocal-size responsibility of every feature value of ``entity``."""
    result = enumerate_counterfactuals(schema, classifier, entity, constraints, config)
    s_set = result.s_set
    scores = []
    for i in range(len(schema)):
        # the s-set runs smallest first, so the first hit is a smallest one
        best = next((x for x in s_set if i in x.changed_indices), None)
        score = Fraction(0) if best is None else Fraction(1, best.cardinality)
        scores.append(FeatureScore(i, score, best))
    return RespReport(entity, scores, authoritative=result.exhausted)


def max_resp_features(
    schema: FeatureSchema,
    classifier,
    entity: Entity,
    constraints: constrain.ConstraintSet | None = None,
    config: SearchConfig | None = None,
) -> frozenset[int]:
    """Features attaining the maximum score; empty iff no counterfactual.

    The maximum score is 1/d* for the minimum cardinality d*, and every hit
    on level d* is subset-minimal, so these are the features changed by the
    minimum-cardinality explanations: the walk stops at the first level with
    hits.
    """
    result = enumerate_counterfactuals(
        schema, classifier, entity, constraints, config, stop_at_first_hit=True
    )
    return frozenset(i for idxs, _, _ in result.hits for i in idxs)


# ---------------------------------------------------------------------------
# distributions


class Distribution:
    """Probability over the product space: an integer ``weight`` per value
    vector over a positive integer ``total``, so results stay exact."""

    total: int

    def __init__(self, schema: FeatureSchema):
        self.schema = schema

    def weight(self, values: Sequence[str]) -> int:
        """Weight of a vector whose values are known to be in their domains."""
        raise NotImplementedError

    def prob(self, values: Sequence[str]) -> Fraction:
        self.schema.check_values(values)
        return Fraction(self.weight(values), self.total)

    def support(self) -> Iterator[tuple[str, ...]]:
        """Vectors that may carry mass (a superset is fine)."""
        if self.schema.space_size() > SPACE_ENUMERATION_LIMIT:
            raise InputError(
                "product space too large to enumerate for this distribution"
            )
        return self.schema.iter_space()

    def conditional(self, values: Sequence[str], index: int) -> dict[str, int]:
        """Weights of the vectors that differ from ``values`` only at feature
        ``index``, keyed by that feature's value in domain order. Divided by
        their sum, they are the feature's distribution given the others.

        The values other than ``values[index]`` must be known to be in their
        domains, as for ``weight``: nothing here checks them again."""
        domain = self.schema.feature(index).domain
        varied = list(values)
        weights = {}
        for v in domain:
            varied[index] = v
            weights[v] = self.weight(varied)
        if not any(weights.values()):
            raise ZeroMassError(_NO_SLICE_MASS)
        return weights


class UniformDistribution(Distribution):
    def __init__(self, schema: FeatureSchema):
        super().__init__(schema)
        self.total = schema.space_size()

    def weight(self, values: Sequence[str]) -> int:
        return 1


class ProductDistribution(Distribution):
    """Independent per-feature marginals.

    Marginal weights are validated to sum to 1 within 1e-9 per feature.
    Each marginal is kept as integers over the lcm of its denominators, and
    ``total`` is the product of the scaled sums, so the full product space
    carries mass exactly 1 and every marginal is renormalized exactly.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        marginals: Sequence[dict[str, Fraction | str | float]],
    ):
        super().__init__(schema)
        if len(marginals) != len(schema):
            raise InputError("need one marginal per feature")
        self._scaled: list[dict[str, int]] = []
        self.total = 1
        for f, marg in zip(schema.features, marginals):
            weights = dict.fromkeys(f.domain, Fraction(0))
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
            denom = lcm(*(w.denominator for w in weights.values()))
            scaled = {v: int(w * denom) for v, w in weights.items()}
            self._scaled.append(scaled)
            self.total *= sum(scaled.values())

    def weight(self, values: Sequence[str]) -> int:
        return prod(map(dict.__getitem__, self._scaled, values))

    @classmethod
    def from_csv(cls, path: str | Path, schema: FeatureSchema) -> ProductDistribution:
        """Load marginals from CSV rows ``feature,value,probability``."""
        per_feature: list[dict[str, Fraction]] = [dict() for _ in schema.features]
        header, rows = read_csv(path)
        if header != ["feature", "value", "probability"]:
            raise InputError(f"{path}: header must be feature,value,probability")
        for lineno, row in rows:
            name, value, raw = (c.strip() for c in row)
            try:
                idx = schema.index_of(name)
            except InputError as exc:
                reject_row(path, lineno, row, exc)
                continue
            where = f"{path}:{lineno}"
            if value not in schema.feature(idx).domain:
                raise InputError(
                    f"{where}: marginal of {name!r} mentions {value!r}, "
                    "not in its domain"
                )
            if value in per_feature[idx]:
                raise InputError(f"{where}: duplicate entry for {value!r}")
            per_feature[idx][value] = _as_fraction(raw, where)
        return in_file(path, cls, schema, per_feature)


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

    def weight(self, values: Sequence[str]) -> int:
        return self.counts.get(tuple(values), 0)

    def support(self) -> Iterator[tuple[str, ...]]:
        return iter(self.counts)

    @classmethod
    def from_csv(cls, path: str | Path, schema: FeatureSchema) -> EmpiricalDistribution:
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
        self.total = sum(map(self.weight, base.support()))
        if self.total == 0:
            raise ZeroMassError("conditioning event has zero mass")

    def weight(self, values: Sequence[str]) -> int:
        if any(chi.matches(values) for chi in self.denials):
            return 0
        return self.base.weight(values)


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


class GlobalScore(Record):
    __slots__ = ("feature", "score", "gamma", "gamma_values", "truncated")

    def __init__(
        self,
        feature: int,
        score: Fraction,
        gamma: tuple[int, ...] | None,
        gamma_values: tuple[str, ...] | None,
        truncated: bool,
    ):
        self.feature = feature
        self.score = score
        self.gamma = gamma
        self.gamma_values = gamma_values
        self.truncated = truncated


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
    schema.check_values(entity.values)
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
    total, lost = _local_core(classifier, tuple(primed), f_star, dist)
    return Fraction(lost, total * (1 + len(gamma)))


def _local_core(
    classifier,
    primed: tuple[str, ...],
    f_star: int,
    dist: Distribution,
) -> tuple[int, int]:
    """(slice mass, mass whose label is not 1) when ``f_star`` is resampled
    in ``primed``. The caller has checked that ``primed`` carries label 1,
    so its own value at ``f_star`` is not asked again."""
    weights = dist.conditional(primed, f_star)
    own = primed[f_star]
    varied = list(primed)
    total = lost = 0
    for v, w in weights.items():
        if w == 0:
            continue
        total += w
        if v == own:
            continue
        varied[f_star] = v
        if classifier.label(tuple(varied)) != 1:
            lost += w
    return total, lost


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
    schema.feature(f_star)
    if max_gamma is not None and max_gamma < 0:
        raise InputError("max_gamma must be >= 0")
    search.require_label_one(schema, classifier, entity)
    values = entity.values
    alternatives = constrain.empty(schema).alternatives(values)
    alternatives[f_star] = ()  # keeps f_star out of every contingency set
    n_others = len(schema) - 1
    bound = n_others if max_gamma is None else min(max_gamma, n_others)

    for size in range(0, bound + 1):
        # every score of one size is lost / (total * (1 + size)), so the
        # pairs compare by cross-multiplication; (0, 1) admits only lost > 0
        best_lost, best_total = 0, 1
        best: tuple[tuple[int, ...], tuple[str, ...]] | None = None
        for gamma, primed in search.level_candidates(alternatives, values, size):
            # the size-0 candidate is the entity, whose label 1 was just read
            if gamma and classifier.label(primed) != 1:
                continue
            try:
                total, lost = _local_core(classifier, primed, f_star, dist)
            except ZeroMassError:
                continue
            if lost * best_total > best_lost * total:
                best_lost, best_total, best = lost, total, (gamma, primed)
        if best is not None:
            gamma, primed = best
            return GlobalScore(
                feature=f_star,
                score=Fraction(best_lost, best_total * (1 + size)),
                gamma=gamma,
                gamma_values=tuple(primed[i] for i in gamma),
                truncated=False,
            )
    return GlobalScore(
        feature=f_star,
        score=Fraction(0),
        gamma=None,
        gamma_values=None,
        truncated=bound < n_others,
    )
