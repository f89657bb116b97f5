"""Empirical models: one exact-rational distribution per measurement context.

All probability arithmetic is done with ``fractions.Fraction``; there is no
floating point anywhere in the model layer, so normalization, no-signaling
and uniformity checks are exact equalities rather than tolerance tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import (
    EmptySupport,
    MalformedInput,
    NegativeEntry,
    NotASubset,
    RowNotNormalized,
    ScenarioMismatch,
    SignalingDetected,
)
from .scenario import (
    MeasurementScenario,
    expect_json,
    overlap,
    projection,
    scenario_from_dict,
    scenario_to_dict,
    section_index,
)

ONE = Fraction(1)
ZERO = Fraction(0)

#: Most decimal digits :func:`parse_rational` accepts in a numerator or a
#: denominator, so a short document cannot force a huge integer.
RATIONAL_DIGIT_LIMIT = 100

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def format_rational(q: Fraction) -> str:
    """Serialize exactly: integers as "k", other rationals as "num/den"."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`: accepts only "[-]k" and "[-]k/d".

    Raises MalformedInput for any other form (decimals, exponents, spaces),
    for a zero denominator and for more than RATIONAL_DIGIT_LIMIT digits.
    """
    match = _RATIONAL.fullmatch(str(text))
    if match is None:
        raise MalformedInput(f"not a rational k or k/d: {str(text)[:40]!r}")
    num, den = match.groups()
    if len(num.lstrip("-")) > RATIONAL_DIGIT_LIMIT or len(den or "") > RATIONAL_DIGIT_LIMIT:
        raise MalformedInput(f"rational has more than {RATIONAL_DIGIT_LIMIT} digits")
    if den is not None and int(den) == 0:
        raise MalformedInput(f"zero denominator in {text!r}")
    return Fraction(int(num), int(den or 1))


@dataclass(frozen=True)
class SignalingWitness:
    """Two contexts whose marginals differ on their intersection."""

    context_a: int
    context_b: int
    overlap: tuple[str, ...]
    marginal_a: tuple[Fraction, ...]
    marginal_b: tuple[Fraction, ...]

    def describe(self) -> str:
        return (
            f"contexts {self.context_a} and {self.context_b} disagree on "
            f"{self.overlap}: {tuple(map(format_rational, self.marginal_a))} vs "
            f"{tuple(map(format_rational, self.marginal_b))}"
        )


@dataclass(frozen=True)
class MarginalWitness:
    """A within-context marginal that is not uniform."""

    context: int
    subset: tuple[str, ...]
    marginal: tuple[Fraction, ...]

    def describe(self) -> str:
        return (
            f"context {self.context}, subset {self.subset} has marginal "
            f"{tuple(map(format_rational, self.marginal))}"
        )


@dataclass(frozen=True)
class EmpiricalModel:
    """A family of context distributions in canonical section order."""

    scenario: MeasurementScenario
    tables: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class PossibilisticModel:
    """Per-context Boolean support tables (the 0/1 collapse of a model).

    Doubles as a Boolean constraint-satisfaction instance: a global
    assignment satisfies the model when its restriction to every context is
    a supported section.
    """

    scenario: MeasurementScenario
    supports: tuple[tuple[bool, ...], ...]

    def support_indices(self, c: int) -> tuple[int, ...]:
        return tuple(i for i, bit in enumerate(self.supports[c]) if bit)

    def support_mask(self, c: int) -> int:
        mask = 0
        for i, bit in enumerate(self.supports[c]):
            if bit:
                mask |= 1 << i
        return mask


def make_model(
    s: MeasurementScenario,
    tables: Sequence[Sequence[Union[Fraction, int, str]]],
) -> EmpiricalModel:
    """Validate a probability table family and wrap it as a model.

    Every row must be nonnegative and sum to exactly 1, and the generalized
    no-signaling condition must hold; on failure a
    :class:`SignalingDetected` carrying a witness is raised.
    """
    if len(tables) != s.n_contexts:
        raise RowNotNormalized(
            f"expected {s.n_contexts} rows, got {len(tables)}"
        )
    rows: list[tuple[Fraction, ...]] = []
    for c, raw in enumerate(tables):
        width = s.n_sections(c)
        if len(raw) != width:
            raise RowNotNormalized(
                f"context {c} needs {width} entries, got {len(raw)}"
            )
        row = tuple(Fraction(x) for x in raw)
        for i, x in enumerate(row):
            if x < 0:
                raise NegativeEntry(
                    f"context {c}, section {i}: negative entry {format_rational(x)}"
                )
        total = sum(row)
        if total != 1:
            raise RowNotNormalized(
                f"context {c} sums to {format_rational(total)}, not 1"
            )
        rows.append(row)
    model = EmpiricalModel(scenario=s, tables=tuple(rows))
    ok, witness = is_no_signaling(model)
    if not ok:
        raise SignalingDetected(witness.describe(), witness=witness)
    return model


def marginal(
    m: EmpiricalModel, c: int, subset: Sequence[str]
) -> tuple[Fraction, ...]:
    """Marginal of context ``c`` on ``subset``, in lexicographic section order.

    Entry ``k`` is the total probability of the subset-section with canonical
    index ``k``; the output always sums to exactly 1.
    """
    subset = tuple(subset)
    out = [ZERO] * (1 << len(subset))
    for sub_idx, p in zip(projection(m.scenario.context(c), subset), m.tables[c]):
        if p:
            out[sub_idx] += p
    return tuple(out)


def is_no_signaling(m: EmpiricalModel):
    """Exact marginal agreement on every context intersection.

    Returns ``(True, None)`` or ``(False, witness)`` with the first failing
    pair in canonical order.
    """
    s = m.scenario
    for a in range(s.n_contexts):
        for b in range(a + 1, s.n_contexts):
            shared = overlap(s, a, b)
            if not shared:
                continue
            ma = marginal(m, a, shared)
            mb = marginal(m, b, shared)
            if ma != mb:
                return False, SignalingWitness(a, b, shared, ma, mb)
    return True, None


def possibilistic_collapse(m: EmpiricalModel) -> PossibilisticModel:
    """The support pattern of a model: entry true iff the probability is nonzero."""
    return PossibilisticModel(
        scenario=m.scenario,
        supports=tuple(tuple(p > 0 for p in row) for row in m.tables),
    )


def proper_subsets(context: tuple[str, ...]):
    """Proper nonempty subsets of a context, in canonical (bitmask) order.

    Mask bit ``k`` selects the context's ``k``-th observable; masks run from
    1 to 2**|C| - 2 so the full context and the empty set are excluded.
    """
    k = len(context)
    for mask in range(1, (1 << k) - 1):
        yield tuple(context[i] for i in range(k) if (mask >> i) & 1)


def is_maximal_marginal(m: EmpiricalModel):
    """True iff every proper within-context marginal of size k is uniform 1/2**k.

    Returns ``(True, None)`` or ``(False, witness)`` with the first failure in
    canonical order.
    """
    for c in range(m.scenario.n_contexts):
        context = m.scenario.context(c)
        for subset in proper_subsets(context):
            expected = Fraction(1, 1 << len(subset))
            marg = marginal(m, c, subset)
            if any(p != expected for p in marg):
                return False, MarginalWitness(c, subset, marg)
    return True, None


def lift_uniform(p: PossibilisticModel) -> EmpiricalModel:
    """Spread each row's mass uniformly over its supported sections.

    A Boolean-no-signaling support pattern can still fail probabilistic
    no-signaling after the uniform lift (a sign the pattern is asymmetric);
    that raises :class:`SignalingDetected`.
    """
    rows = []
    for c, support in enumerate(p.supports):
        count = sum(support)
        if count == 0:
            raise EmptySupport(f"context {c} has empty support")
        weight = Fraction(1, count)
        rows.append(tuple(weight if bit else ZERO for bit in support))
    return make_model(p.scenario, rows)


def mix(
    models: Sequence[EmpiricalModel],
    weights: Sequence[Union[Fraction, int]],
) -> EmpiricalModel:
    """Convex combination of models on the same scenario."""
    if len(models) != len(weights) or not models:
        raise ScenarioMismatch("need one weight per model")
    weights = [Fraction(w) for w in weights]
    if any(w < 0 for w in weights) or sum(weights) != 1:
        raise RowNotNormalized("mixture weights must be nonnegative and sum to 1")
    s = models[0].scenario
    if any(m.scenario != s for m in models):
        raise ScenarioMismatch("models live on different scenarios")
    rows = []
    for c in range(s.n_contexts):
        width = s.n_sections(c)
        rows.append(
            tuple(
                sum(w * m.tables[c][i] for w, m in zip(weights, models))
                for i in range(width)
            )
        )
    return make_model(s, rows)


def from_global_distribution(
    s: MeasurementScenario,
    weights: Mapping[tuple[int, ...], Union[Fraction, int]],
) -> EmpiricalModel:
    """The (noncontextual) model whose rows are marginals of one global distribution.

    ``weights`` maps full outcome tuples (scenario observable order) to
    probabilities; they must be nonnegative and sum to 1.  An assignment
    that is not one bit per observable raises NotASubset before any row is
    built.
    """
    n = len(s.observables)
    mass = []
    for values, w in weights.items():
        if len(values) != n or not all(isinstance(v, int) and v in (0, 1) for v in values):
            raise NotASubset(f"assignment {values} is not {n} outcome bits")
        mass.append((section_index(values), Fraction(w)))
    total = sum(w for _, w in mass)
    if total != 1:
        raise RowNotNormalized(f"global weights sum to {format_rational(total)}")
    if any(w < 0 for _, w in mass):
        raise NegativeEntry("negative global weight")
    rows = []
    for ctx in s.contexts:
        table = projection(s.observables, ctx)
        row = [ZERO] * (1 << len(ctx))
        for g, w in mass:
            row[table[g]] += w
        rows.append(tuple(row))
    return make_model(s, rows)


def deterministic_model(
    s: MeasurementScenario, values: Sequence[int]
) -> EmpiricalModel:
    """Point-mass model of a single global assignment."""
    return from_global_distribution(s, {tuple(values): ONE})


# --- JSON ------------------------------------------------------------------

def _context_key(context: tuple[str, ...]) -> str:
    return "|".join(context)


def _rows_to_dict(s: MeasurementScenario, rows, cell) -> dict:
    """Scenario plus one row per context key, each entry written by ``cell``."""
    return {
        "scenario": scenario_to_dict(s),
        "tables": {
            _context_key(ctx): [cell(x) for x in row]
            for ctx, row in zip(s.contexts, rows)
        },
    }


def _rows_from_dict(data, what: str, cell, missing) -> tuple[MeasurementScenario, list]:
    """Read the scenario and one row per context, each entry read by ``cell``.

    A missing row or a row for an unknown context raises ``missing``.
    """
    expect_json(data, dict, f"a {what} document")
    s = scenario_from_dict(data["scenario"])
    tables = expect_json(data["tables"], dict, "tables")
    keys = [_context_key(ctx) for ctx in s.contexts]
    extra = set(tables) - set(keys)
    if extra:
        raise missing(f"{what} rows for unknown contexts: {sorted(extra)}")
    rows = []
    for key in keys:
        if key not in tables:
            raise missing(f"missing {what} row for context {key!r}")
        rows.append([cell(x) for x in expect_json(tables[key], list, f"{what} row {key!r}")])
    return s, rows


def _parse_bit(x) -> bool:
    """A support cell: 0, 1, true or false."""
    if type(x) not in (int, bool) or x not in (0, 1):
        raise MalformedInput(f"support cell must be 0, 1, true or false, not {repr(x)[:40]}")
    return bool(x)


def model_to_dict(m: EmpiricalModel) -> dict:
    """JSON form: scenario plus one rational-string row per context key."""
    return _rows_to_dict(m.scenario, m.tables, format_rational)


def model_from_dict(data: dict) -> EmpiricalModel:
    """Parse and re-validate the JSON form produced by :func:`model_to_dict`."""
    s, rows = _rows_from_dict(data, "table", parse_rational, RowNotNormalized)
    return make_model(s, rows)


def possibilistic_to_dict(p: PossibilisticModel) -> dict:
    """Same shape as the model JSON, with rows replaced by 0/1 arrays."""
    return _rows_to_dict(p.scenario, p.supports, int)


def possibilistic_from_dict(data: dict) -> PossibilisticModel:
    """Parse the JSON form produced by :func:`possibilistic_to_dict`."""
    s, rows = _rows_from_dict(data, "support", _parse_bit, EmptySupport)
    for c, row in enumerate(rows):
        if len(row) != s.n_sections(c) or not any(row):
            raise EmptySupport(f"context {_context_key(s.contexts[c])!r} support row is invalid")
    return PossibilisticModel(scenario=s, supports=tuple(tuple(row) for row in rows))
