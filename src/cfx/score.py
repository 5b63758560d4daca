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
feature gets one ``Fraction``. The scan of a size is a branch and bound:
a contingency set whose space a rule list reads as one label, or whose cap
cannot beat the best pair, is passed over whole; a candidate whose slice
cannot beat the best pair asks no label; and the size ends once the best
pair reaches the distribution's loss cap.

Distributions: uniform over the product space, fully factorized (product of
per-feature marginals), empirical (frequencies of a sample), and any of
those conditioned on denial constraints: renormalized over the satisfying
event, whose support is scanned only up to the first vector with mass.
"""

from __future__ import annotations

from collections import Counter
from decimal import Context
from fractions import Fraction
from itertools import combinations, islice
from math import lcm, prod
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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
from .search import SearchConfig

# conditioning looks at no more than this many support vectors for one
# with mass, and refuses when none of them has any: that proves nothing
SPACE_ENUMERATION_LIMIT = 1 << 20


class ZeroMassError(InputError):
    """A conditioning event or conditional slice carries no probability."""


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
    """Reciprocal-size responsibility of every feature value of ``entity``.

    The walk prunes every index set that holds a smaller minimal one, so
    it yields only s-minimal rows, and ends once every feature that may
    change lies in one of them. It is drained, so every candidate it
    announces is asked, but only each feature's first row is kept."""
    walk = search.Walk(
        schema, classifier, entity, constraints, config, prune=search.WITNESSES
    )
    # s-minimal rows run smallest first, so a feature's first is a smallest one
    first: dict[int, tuple] = {}
    for row in walk:
        for i in row[0]:
            first.setdefault(i, row)
    scores = [FeatureScore(i, Fraction(0), None) for i in range(len(schema))]
    for i, witness in zip(first, search.explain_rows(entity, first.values())):
        scores[i] = FeatureScore(i, Fraction(1, witness.cardinality), witness)
    return RespReport(entity, scores, authoritative=walk.exhausted)


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
    walk = search.Walk(
        schema, classifier, entity, constraints, config, stop_at_first_hit=True
    )
    return frozenset(i for idxs, _, _ in walk for i in idxs)


# ---------------------------------------------------------------------------
# distributions


class Distribution:
    """Probability over the product space: an integer ``weight`` per value
    vector, in proportion to its probability, so results stay exact."""

    def __init__(self, schema: FeatureSchema):
        self.schema = schema

    def weight(self, values: Sequence[str]) -> int:
        """Weight of a vector whose values are known to be in their domains."""
        raise NotImplementedError

    def support(self) -> Iterator[tuple[str, ...]]:
        """Vectors that may carry mass (a superset is fine), lazily."""
        return self.schema.iter_space()

    def conditional(self, values: Sequence[str], index: int) -> dict[str, int]:
        """Weights of the vectors that differ from ``values`` only at feature
        ``index``, keyed by that feature's value in domain order. Divided by
        their sum, they are the feature's distribution given the others; a
        slice without mass has no such distribution, and all its weights are 0.

        The values other than ``values[index]`` must be known to be in their
        domains, as for ``weight``, but an ``index`` outside ``range(n)``
        raises ``InputError``. Callers only read the result, which a
        distribution may share between calls."""
        domain = self.schema.feature(index).domain
        varied = list(values)
        weights = {}
        for v in domain:
            varied[index] = v
            weights[v] = self.weight(varied)
        return weights

    def loss_cap(self, index: int, own: str) -> tuple[int, int]:
        """``(lost, total)``: no slice of feature ``index`` that has mass
        puts a larger share of it off the value ``own`` than lost / total.
        Any share may reach 1 unless a distribution knows better."""
        self.schema.feature(index)
        return 1, 1

    def contingency(
        self, gamma: tuple[int, ...], values: Sequence[str], index: int
    ) -> tuple[int, int, Callable | None]:
        """What the scan of one contingency set needs, settled once for all
        its candidates: ``values`` with the features ``gamma`` (``index``
        not among them) changed, each resampled at ``index``.

        Returns ``(lost, total, conditional)``. No slice of the set that
        has mass puts a larger share of it off ``values[index]`` than
        lost / total. ``conditional`` gives the candidates' slices as
        :meth:`conditional` would, for this set and ``index`` only, or is
        None where :meth:`conditional` itself serves."""
        self.schema.feature(index)  # raises: index out of range
        lost, total = self.loss_cap(index, values[index])
        return lost, total, None


class UniformDistribution(Distribution):
    def __init__(self, schema: FeatureSchema):
        super().__init__(schema)
        self._slices = {
            i: dict.fromkeys(f.domain, 1) for i, f in enumerate(schema.features)
        }

    def weight(self, values: Sequence[str]) -> int:
        return 1

    def conditional(self, values: Sequence[str], index: int) -> dict[str, int]:
        if index not in self._slices:
            self.schema.feature(index)  # raises: index out of range
        return self._slices[index]

    def loss_cap(self, index: int, own: str) -> tuple[int, int]:
        k = len(self.schema.feature(index).domain)
        return k - 1, k


class ProductDistribution(Distribution):
    """Independent per-feature marginals.

    Marginal weights are validated to sum to 1 within 1e-9 per feature.
    Each marginal is kept as integers over the lcm of its denominators, so
    a vector's weight is the product of its scaled marginal weights and
    every marginal is renormalized exactly.
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
                    f"marginal of {f.name!r} sums to {_decimal_str(total)}, not 1"
                )
            denom = lcm(*(w.denominator for w in weights.values()))
            scaled = {v: int(w * denom) for v, w in weights.items()}
            self._scaled.append(scaled)
        every = self._scaled
        self._parts = {i: (every[:i] + every[i + 1:], m) for i, m in enumerate(every)}

    def weight(self, values: Sequence[str]) -> int:
        return prod(map(dict.__getitem__, self._scaled, values))

    def conditional(self, values: Sequence[str], index: int) -> dict[str, int]:
        # the others' product times this feature's marginal; all zero when
        # another feature's value has no marginal weight
        if index not in self._parts:
            self.schema.feature(index)  # raises: index out of range
        rest, marginal = self._parts[index]
        others = prod(map(dict.__getitem__, rest, values[:index] + values[index + 1:]))
        return {v: others * w for v, w in marginal.items()}

    def loss_cap(self, index: int, own: str) -> tuple[int, int]:
        # every slice with mass is this feature's marginal times one factor
        self.schema.feature(index)  # raises: index out of range
        marginal = self._scaled[index]
        total = sum(marginal.values())
        return total - marginal[own], total

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
        # the event has mass iff one support vector has; stop at the first
        scan = iter(base.support())
        if not any(map(self.weight, islice(scan, SPACE_ENUMERATION_LIMIT))):
            if next(scan, None) is None:
                raise ZeroMassError("conditioning event has zero mass")
            raise InputError(
                f"conditioning event: none of the first {SPACE_ENUMERATION_LIMIT} "
                "support vectors has mass; the scan stops there, so nothing is proven"
            )

    def weight(self, values: Sequence[str]) -> int:
        if any(chi.matches(values) for chi in self.denials):
            return 0
        return self.base.weight(values)

    def support(self) -> Iterator[tuple[str, ...]]:
        # conditioning only takes mass away, so the base's support is a
        # superset of this one's
        return self.base.support()

    def conditional(self, values: Sequence[str], index: int) -> dict[str, int]:
        return self._slices((), values, index, self.base.conditional)(values, index)

    def contingency(
        self, gamma: tuple[int, ...], values: Sequence[str], index: int
    ) -> tuple[int, int, Callable | None]:
        lost, total, base = self.base.contingency(gamma, values, index)
        # Conditioning only zeroes slice values. Where no denial may match
        # at the value values[index], that value keeps its weight, and
        # zeroing others only lowers the share off it: the base's cap holds.
        # A denial may match there only if its literals outside gamma hold.
        if any(
            all(lit.feature in gamma or lit.holds(values) for lit in chi.literals)
            for chi in self.denials
        ):
            lost, total = 1, 1
        return lost, total, self._slices(gamma, values, index, base or self.base.conditional)

    def _slices(
        self, gamma: tuple[int, ...], values: Sequence[str], index: int, base: Callable
    ) -> Callable:
        """The slices ``base`` gives the candidates of ``values`` with the
        features ``gamma`` changed, with each value of ``index`` a denial
        forbids zeroed. Only a denial whose literals outside gamma and
        ``index`` hold on ``values`` can forbid one; that is settled here
        once, and each candidate tests only the literals on gamma."""
        live = [
            (
                [lit for lit in chi.literals if lit.feature in gamma],
                [lit for lit in chi.literals if lit.feature == index],
            )
            for chi in self.denials
            if all(
                lit.feature in gamma or lit.feature == index or lit.holds(values)
                for lit in chi.literals
            )
        ]
        if not live:
            return base

        def conditional(primed: Sequence[str], index: int) -> dict[str, int]:
            weights = base(primed, index)
            denying = [
                own for moved, own in live if all(lit.holds(primed) for lit in moved)
            ]
            if not denying:
                return weights
            weights = dict(weights)  # the base may share its slice between calls
            varied = list(primed)
            for v in weights:
                varied[index] = v
                if any(all(lit.holds(varied) for lit in own) for own in denying):
                    weights[v] = 0
            return weights

        return conditional


def _as_fraction(w: Fraction | str | float | int, context: str) -> Fraction:
    if isinstance(w, float):
        # exact decimal semantics, not the binary float's exact value; nan
        # and inf fail to parse below
        w = str(w)
    try:
        if isinstance(w, str):
            # Fraction builds 10**exp for a decimal exponent, so a few bytes
            # could take minutes and GBs: the exponent may have no more
            # digits' worth than Python allows in decimal integer text
            marker, exp = w.lower().rpartition("e")[1:]
            if marker and abs(int(exp)) > 4300:
                raise ValueError(exp)
        if isinstance(w, (Fraction, int, str)):
            return Fraction(w)
    except (ValueError, ZeroDivisionError):
        pass
    raise InputError(f"{context}: cannot parse probability {w!r}")


def _decimal_str(x: Fraction) -> str:
    """``x`` as its ``float`` prints, or to 17 significant digits when it
    lies past a float's range."""
    try:
        return str(float(x))
    except OverflowError:
        return f"{Context(prec=17).divide(x.numerator, x.denominator).normalize():g}"


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

    def to_json_dict(self, schema: FeatureSchema, entity: Entity) -> dict:
        """This score's row of the ``score --prob`` payload for ``entity``."""
        return {
            "feature": schema.feature(self.feature).name,
            "value": entity.values[self.feature],
            "score": fraction_str(self.score),
            "score_decimal": float(self.score),
            "gamma": None if self.gamma is None else {
                schema.feature(j).name: v for j, v in zip(self.gamma, self.gamma_values)
            },
            "truncated": self.truncated,
        }


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
    (1 - E[label | all features but f_star fixed]) / (1 + |gamma|); a
    conditional slice without mass has no expectation and raises
    ``ZeroMassError``.
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
    primed = tuple(primed)
    if classifier.label(primed) != 1:
        raise ConditionError(
            4, "the contingency intervention alone must keep label 1"
        )
    total, lost = _local_core(
        classifier, primed, f_star, dist.conditional(primed, f_star)
    )
    if not total:
        raise ZeroMassError(
            "no probability mass on the slice fixing all other features"
        )
    return Fraction(lost, total * (1 + len(gamma)))


def _local_core(
    classifier,
    primed: tuple[str, ...],
    f_star: int,
    weights: dict[str, int],
) -> tuple[int, int]:
    """(slice mass, mass whose label is not 1) when ``f_star`` is resampled
    in ``primed`` under ``weights``, the slice's ``dist.conditional``. The
    caller has checked that ``primed`` carries label 1, so its own value at
    ``f_star`` is not asked again. A slice without mass reads (0, 0) and
    asks no label."""
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

    The scan of a size is a branch and bound that asks fewer labels and
    returns the same result. Each contingency set gets one verdict before
    any of its candidates is built, and is passed over whole when
    ``classifier.space_label`` (an optional method) gives the label every
    vector of its space reads (1: no candidate loses any mass; 0: no primed
    vector keeps label 1), or when ``dist.contingency``'s cap on its slices
    cannot beat the best pair. A candidate whose slice could not beat the
    best pair even if all mass off the entity's own value lost label 1 is
    passed over unasked, and the size ends once the best pair reaches
    ``dist.loss_cap``. Pairs rank by strict ``>``, so a candidate passed
    over could at most tie, and a tie keeps the earlier pair.
    """
    schema.feature(f_star)
    if max_gamma is not None and max_gamma < 0:
        raise InputError("max_gamma must be >= 0")
    search.require_label_one(schema, classifier, entity)
    values = entity.values
    alternatives = constrain.empty(schema).alternatives(values)
    alternatives[f_star] = ()  # keeps f_star out of every contingency set
    movable = [i for i, alts in enumerate(alternatives) if alts]
    n_others = len(schema) - 1
    bound = n_others if max_gamma is None else min(max_gamma, n_others)
    own = values[f_star]
    cap_lost, cap_total = dist.loss_cap(f_star, own)
    space_label = None
    if hasattr(classifier, "space_label"):
        space_label = classifier.space_label
        # a set's space: f_star takes its whole domain, the set its alternatives
        pools = [(v,) for v in values]
        pools[f_star] = schema.feature(f_star).domain

    def best_of(size):
        """``(lost, total, (gamma, primed))`` of the best pair of one size,
        or ``(0, 1, None)``. Every score of one size is lost / (total * (1 +
        size)), so the pairs compare by cross-multiplication; the floor
        (0, 1) admits only lost > 0."""
        best_lost, best_total, best = 0, 1, None
        for gamma in combinations(movable, size):
            # a space that reads 1 loses no mass anywhere; one that reads 0
            # holds each primed vector, which then reads 0 and qualifies not
            if space_label is not None:
                space = list(pools)
                for i in gamma:
                    space[i] = alternatives[i]
                if space_label(space) is not None:
                    continue
            set_lost, set_total, conditional = dist.contingency(gamma, values, f_star)
            if set_lost * best_total <= best_lost * set_total:
                continue
            conditional = conditional or dist.conditional
            for _, primed in search.set_candidates(alternatives, values, (gamma,)):
                weights = conditional(primed, f_star)
                total = sum(weights.values())
                # a candidate that qualifies keeps label 1 at its own value,
                # so lost <= total - weights[own]; a slice without mass stops
                if (total - weights[own]) * best_total <= best_lost * total:
                    continue
                # the size-0 candidate is the entity, whose label 1 was just read
                if gamma and classifier.label(primed) != 1:
                    continue
                total, lost = _local_core(classifier, primed, f_star, weights)
                if lost * best_total > best_lost * total:
                    best_lost, best_total, best = lost, total, (gamma, primed)
                    if best_lost * cap_total >= cap_lost * best_total:
                        return best_lost, best_total, best
        return best_lost, best_total, best

    for size in range(0, bound + 1):
        best_lost, best_total, best = best_of(size)
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
