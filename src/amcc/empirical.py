"""Empirical models: one exact-rational distribution per measurement context.

A model is one denominator ``den`` and one row of integer numerators per
context, so normalization, no-signaling and uniformity checks are integer
equalities; there is no floating point anywhere in the model layer.
:func:`make_model` is the one place rationals become this form, and values
leave it as ``fractions.Fraction`` only at the edges (JSON, witnesses).
Marginals are read through getter plans cached per target shape, and each
scenario keeps its no-signaling pairs and within-context subsets as cached
lists of those plans; one walk over the pairs decides no-signaling for models
and for support patterns.
A possibilistic model (a support pattern) is one section bitmask per
context; its JSON form spells each mask out as a 0/1 row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Mapping, Sequence, Union

from .errors import (
    EmptySupport,
    MalformedInput,
    NegativeEntry,
    NotASubset,
    RowNotNormalized,
    ScenarioMismatch,
    ShapeMismatch,
    SignalingDetected,
    TooLarge,
)
from .scenario import (
    SCENARIO_CACHE_SIZE,
    MeasurementScenario,
    expect_json,
    is_bit,
    json_field,
    label_positions,
    overlaps,
    projection,
    scenario_from_dict,
    scenario_to_dict,
    section_index,
    sequence_getter,
    shown,
)

#: Most decimal digits :func:`parse_rational` accepts in a numerator or a
#: denominator, so a short document cannot force a huge integer.
RATIONAL_DIGIT_LIMIT = 100
#: Bound on a model's common denominator (10 * RATIONAL_DIGIT_LIMIT digits), so
#: that many distinct denominators cannot force huge numerators either.
DENOMINATOR_LIMIT = 10 ** (10 * RATIONAL_DIGIT_LIMIT)
_TOO_LARGE = f"common denominator has more than {10 * RATIONAL_DIGIT_LIMIT} digits"

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def format_rational(q: Fraction) -> str:
    """Serialize exactly: integers as "k", other rationals as "num/den"."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _rational_parts(text: str) -> tuple[int, int]:
    """``(numerator, denominator)`` of "[-]k" or "[-]k/d" in lowest terms: the grammar of :func:`parse_rational`.

    Raises MalformedInput for any other form (decimals, exponents, spaces),
    for more than RATIONAL_DIGIT_LIMIT digits and for a zero denominator,
    checked in that order.
    """
    match = _RATIONAL.fullmatch(str(text))
    if match is None:
        raise MalformedInput(f"not a rational k or k/d: {str(text)[:40]!r}")
    num, den = match.groups()
    if len(num.lstrip("-")) > RATIONAL_DIGIT_LIMIT or len(den or "") > RATIONAL_DIGIT_LIMIT:
        raise MalformedInput(f"rational has more than {RATIONAL_DIGIT_LIMIT} digits")
    if den is None:
        return int(num), 1
    num, den = int(num), int(den)
    if den == 0:
        raise MalformedInput(f"zero denominator in {text!r}")
    g = gcd(num, den)
    return (num // g, den // g) if g > 1 else (num, den)


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`: accepts only "[-]k" and "[-]k/d".

    Raises MalformedInput for any other form (decimals, exponents, spaces),
    for a zero denominator and for more than RATIONAL_DIGIT_LIMIT digits.
    """
    return Fraction(*_rational_parts(text))


def _exact_parts(x: Union[Fraction, int, str]) -> tuple[int, int]:
    """``(numerator, denominator)`` in lowest terms of what :func:`exact_rational` reads."""
    if isinstance(x, str):  # first: a JSON cell skips the slower ABC check of Fraction
        return _rational_parts(x)
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int) and not isinstance(x, bool):
        return x, 1
    raise MalformedInput(f"not an exact rational (int, Fraction or 'k/d' string): {repr(x)[:40]}")


def exact_rational(x: Union[Fraction, int, str]) -> Fraction:
    """Read an exact rational at a Python entry point.

    A Fraction or an int (not a bool) passes; a string is read by
    :func:`parse_rational`, the JSON grammar.  Anything else, a float or a
    Decimal included, raises MalformedInput, so no binary fraction enters a
    model.
    """
    return x if isinstance(x, Fraction) else Fraction(*_exact_parts(x))


@dataclass(frozen=True)
class SignalingWitness:
    """Two contexts whose marginals differ on their intersection.

    For a possibilistic model (:func:`amcc.construct.boolean_no_signaling`)
    the marginals are the two projected support masks as 0/1 rows.
    """

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
    """A family of context distributions in canonical section order.

    Section ``sec`` of context ``c`` has probability ``numerators[c][sec] / den``;
    ``den`` is the least common denominator of all entries, so equal
    probabilities give equal models.
    """

    scenario: MeasurementScenario
    den: int
    numerators: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PossibilisticModel:
    """One support bitmask per context (the possibilistic collapse of a model).

    Bit ``sec`` of ``masks[c]`` is set iff section ``sec`` of context ``c``
    is supported.  Doubles as a Boolean constraint-satisfaction instance: a
    global assignment satisfies the model when its restriction to every
    context is a supported section.  Raises ShapeMismatch unless there is
    one mask per context, each with no bit outside the context's sections
    (so no negative mask either).
    """

    scenario: MeasurementScenario
    masks: tuple[int, ...]

    def __post_init__(self):
        contexts = self.scenario.contexts
        if len(self.masks) != len(contexts):
            raise ShapeMismatch(f"{len(self.masks)} support masks for {len(contexts)} contexts")
        for c, (ctx, mask) in enumerate(zip(contexts, self.masks)):
            if mask >> (1 << len(ctx)):
                raise ShapeMismatch(
                    f"support mask of context {c} has a bit past section {(1 << len(ctx)) - 1}"
                )


def support_row(mask: int, n_sections: int) -> tuple[int, ...]:
    """A support bitmask spelled out as ``n_sections`` 0/1 entries."""
    return tuple([(mask >> sec) & 1 for sec in range(n_sections)])


def _row_mask(row) -> int:
    """The bitmask of the truthy entries of a row."""
    return sum(1 << sec for sec, x in enumerate(row) if x)


def _common_denominator(dens) -> int:
    """The lcm of ``dens``; TooLarge as soon as it reaches DENOMINATOR_LIMIT."""
    out = 1
    for d in dens:
        out = lcm(out, d)
        if out >= DENOMINATOR_LIMIT:
            raise TooLarge(_TOO_LARGE)
    return out


def make_model(
    s: MeasurementScenario,
    tables: Sequence[Sequence[Union[Fraction, int, str]]],
    den: int = 1,
) -> EmpiricalModel:
    """Validate a probability table family and wrap it as a model: the one reader of model rows.

    Rows are read in context order; a row of the wrong width raises
    RowNotNormalized naming its context key ("X1|X2") before any cell is read.
    Entry ``x`` is the probability ``x / den``; entries are read as
    :func:`exact_rational` reads them, but straight to integer numerator and
    denominator pairs, so a "k/d" cell never becomes a Fraction; ``den``
    must be a positive int (not a bool), else MalformedInput.  A row of
    plain ints is checked as integers, so constructors that hold integer
    rows pass them with their common ``den``.  Every row must be
    nonnegative and sum to exactly 1, and the generalized no-signaling
    condition must hold; on failure a :class:`SignalingDetected` carrying a
    witness is raised.  Each row's least common denominator is checked
    before any of its entries, so no message formats a number past the
    limit; a row's or the model's least common denominator reaching
    DENOMINATOR_LIMIT raises TooLarge.
    """
    if not isinstance(den, int) or isinstance(den, bool) or den < 1:
        raise MalformedInput(f"den must be a positive int; den {shown(den)} is not")
    if len(tables) != s.n_contexts:
        raise RowNotNormalized(
            f"expected {s.n_contexts} rows, got {len(tables)}"
        )
    rows = []
    for c, raw in enumerate(tables):
        width = s.n_sections(c)
        if len(raw) != width:
            key = _context_key(s.contexts[c])
            raise RowNotNormalized(f"context {c} ({key}) needs {width} entries, got {len(raw)}")
        row, row_den = raw, den
        if not all(type(x) is int for x in raw):
            parts = [_exact_parts(x) for x in raw]
            scale = _common_denominator({d for _, d in parts})
            row = [x * (scale // d) for x, d in parts]
            row_den *= scale
        g = gcd(row_den, *row)
        # The row's least common denominator, checked before any entry or
        # sum of the row is formatted.
        if row_den // g >= DENOMINATOR_LIMIT:
            raise TooLarge(_TOO_LARGE)
        for i, x in enumerate(row):
            if x < 0:
                entry = format_rational(Fraction(x, row_den))
                raise NegativeEntry(f"context {c}, section {i}: negative entry {entry}")
        total = sum(row)
        if total != row_den:
            raise RowNotNormalized(
                f"context {c} sums to {format_rational(Fraction(total, row_den))}, not 1"
            )
        rows.append((row_den // g, [x // g for x in row] if g > 1 else row))
    common = _common_denominator({row_den for row_den, _ in rows})
    numerators = tuple(tuple(x * (common // row_den) for x in row) for row_den, row in rows)
    model = EmpiricalModel(scenario=s, den=common, numerators=numerators)
    ok, witness = is_no_signaling(model)
    if not ok:
        raise SignalingDetected(witness.describe(), witness=witness)
    return model


@lru_cache(maxsize=SCENARIO_CACHE_SIZE)
def _marginal_plan(width: int, positions: tuple[int, ...]) -> tuple:
    """One getter per target section, picking the context sections that restrict to it.

    The target is the labels at ``positions`` (in that order) of a context
    of ``width`` labels.  Summing what getter ``k`` picks from a row of the
    context gives the row's mass on target section ``k``.  The plan depends
    on nothing else, so every context of one width shares it, and a
    scenario's cached plan lists hold one copy per distinct target shape.
    """
    groups = [[] for _ in range(1 << len(positions))]
    for sec, sub in enumerate(projection(tuple(range(width)), positions)):
        groups[sub].append(sec)
    return tuple(map(sequence_getter, groups))


def _plan(context: tuple[str, ...], target: tuple[str, ...]) -> tuple:
    """The :func:`_marginal_plan` of ``target``, labels of ``context``.

    Raises DuplicateLabel or NotASubset, as :func:`label_positions` does.
    """
    return _marginal_plan(len(context), label_positions(context, target))


def _plan_getter(s: MeasurementScenario):
    """A plan of ``(c, target)``, labels of context ``c`` of ``s``, for one scenario's plan list.

    Its targets are labels of their context by construction, so each
    context's label positions are read once, from one lookup, and not
    checked again for every target.  Its plans are kept in a dict of its
    own, so a list with more shapes than the LRU of :func:`_marginal_plan`
    holds (a width-9 context has 510 proper subsets) still builds each
    (width, positions) plan once.
    """
    plans = {}
    lookups = [{label: k for k, label in enumerate(ctx)} for ctx in s.contexts]

    def plan(c: int, target: tuple[str, ...]) -> tuple:
        lookup = lookups[c]
        key = len(lookup), tuple([lookup[label] for label in target])
        if key not in plans:
            plans[key] = _marginal_plan(*key)
        return plans[key]

    return plan


def _read(plan, row, reduce=sum) -> tuple[int, ...]:
    """The marginal of a row through a :func:`_marginal_plan`: ``reduce`` of each getter's picks."""
    return tuple([reduce(pick(row)) for pick in plan])


def marginal(
    m: EmpiricalModel, c: int, subset: Sequence[str]
) -> tuple[int, ...]:
    """Marginal of context ``c`` on ``subset``, as integer numerators over ``m.den``.

    Entry ``k`` is the mass of the subset-section with canonical index ``k``,
    in lexicographic section order; the entries always sum to ``m.den``.
    The row is read through a plan cached per (context width, subset positions).
    """
    return _read(_plan(m.scenario.context(c), tuple(subset)), m.numerators[c])


@lru_cache(maxsize=SCENARIO_CACHE_SIZE)
def _overlap_plans(s: MeasurementScenario) -> tuple:
    """``(a, b, shared, plan_a, plan_b)`` for each pair of :func:`overlaps`, in its order."""
    plan = _plan_getter(s)
    return tuple((a, b, shared, plan(a, shared), plan(b, shared)) for a, b, shared in overlaps(s))


def _over(row, den: int) -> tuple[Fraction, ...]:
    """Integer numerators over ``den`` as Fractions, for the witnesses."""
    return tuple(Fraction(x, den) for x in row)


def _no_signaling(s: MeasurementScenario, rows, reduce, entry):
    """The one walk over :func:`_overlap_plans` behind both no-signaling checks.

    A marginal entry is ``reduce`` of the row entries that restrict to it:
    ``sum`` of a model's integer numerators, ``any`` of a support pattern's
    0/1 entries.  Returns ``(True, None)`` or ``(False, witness)`` for the
    first pair that disagrees, ``entry`` writing each witness marginal entry.
    """
    for a, b, shared, plan_a, plan_b in _overlap_plans(s):
        row_a, row_b = rows[a], rows[b]
        for pick_a, pick_b in zip(plan_a, plan_b):
            if reduce(pick_a(row_a)) != reduce(pick_b(row_b)):
                ma, mb = (tuple(map(entry, _read(plan, row, reduce)))
                          for plan, row in ((plan_a, row_a), (plan_b, row_b)))
                return False, SignalingWitness(a, b, shared, ma, mb)
    return True, None


def is_no_signaling(m: EmpiricalModel):
    """Exact marginal agreement on every context intersection.

    Returns ``(True, None)`` or ``(False, witness)`` with the first failing
    pair in canonical order.
    """
    den = m.den
    return _no_signaling(m.scenario, m.numerators, sum, lambda x: Fraction(x, den))


def possibilistic_collapse(m: EmpiricalModel) -> PossibilisticModel:
    """The support pattern of a model: a section is supported iff its probability is nonzero."""
    return PossibilisticModel(scenario=m.scenario, masks=tuple(map(_row_mask, m.numerators)))


def proper_subsets(context: tuple[str, ...]):
    """Proper nonempty subsets of a context, in canonical (bitmask) order.

    Mask bit ``k`` selects the context's ``k``-th observable; masks run from
    1 to 2**|C| - 2 so the full context and the empty set are excluded.
    """
    k = len(context)
    for mask in range(1, (1 << k) - 1):
        yield tuple(context[i] for i in range(k) if (mask >> i) & 1)


@lru_cache(maxsize=SCENARIO_CACHE_SIZE)
def _subset_plans(s: MeasurementScenario) -> tuple:
    """``(c, subset, plan)`` for each proper subset of each context, in canonical order."""
    plan = _plan_getter(s)
    return tuple(
        (c, subset, plan(c, subset))
        for c, ctx in enumerate(s.contexts)
        for subset in proper_subsets(ctx)
    )


@lru_cache(maxsize=SCENARIO_CACHE_SIZE)
def _deciding_plans(s: MeasurementScenario) -> tuple:
    """The entries of :func:`_subset_plans` whose subset leaves out exactly one label of its context.

    Built on their own, in the same order, so a model that passes never
    walks the other subsets.
    """
    plan = _plan_getter(s)
    return tuple(
        (c, subset, plan(c, subset))
        for c, ctx in enumerate(s.contexts) if len(ctx) > 1
        for subset in (ctx[:i] + ctx[i + 1:] for i in reversed(range(len(ctx))))
    )


def _first_nonuniform(m: EmpiricalModel, plans):
    """The first ``(c, subset, plan)`` of ``plans`` whose marginal is not uniform, or None."""
    rows, den = m.numerators, m.den
    for c, subset, plan in plans:
        row, k = rows[c], len(subset)
        for pick in plan:
            if sum(pick(row)) << k != den:
                return c, subset, plan
    return None


def is_maximal_marginal(m: EmpiricalModel):
    """True iff every proper within-context marginal of size k is uniform 1/2**k.

    Returns ``(True, None)`` or ``(False, witness)`` with the first failure in
    canonical order.  A uniform marginal stays uniform when marginalised
    further, and every proper subset lies in one that leaves out a single
    label, so those subsets decide; only a model that fails walks every
    subset in canonical order, for the witness.
    """
    if _first_nonuniform(m, _deciding_plans(m.scenario)) is None:
        return True, None
    c, subset, plan = _first_nonuniform(m, _subset_plans(m.scenario))
    return False, MarginalWitness(c, subset, _over(_read(plan, m.numerators[c]), m.den))


def lift_uniform(p: PossibilisticModel) -> EmpiricalModel:
    """Spread each row's mass uniformly over its supported sections.

    A Boolean-no-signaling support pattern can still fail probabilistic
    no-signaling after the uniform lift (a sign the pattern is asymmetric);
    that raises :class:`SignalingDetected`.
    """
    counts = [mask.bit_count() for mask in p.masks]
    if 0 in counts:
        raise EmptySupport(f"context {counts.index(0)} has empty support")
    den = lcm(*counts)
    rows = [
        tuple(bit * (den // count) for bit in support_row(mask, p.scenario.n_sections(c)))
        for c, (mask, count) in enumerate(zip(p.masks, counts))
    ]
    return make_model(p.scenario, rows, den)


def mix(
    models: Sequence[EmpiricalModel],
    weights: Sequence[Union[Fraction, int]],
) -> EmpiricalModel:
    """Convex combination of models on the same scenario."""
    if len(models) != len(weights) or not models:
        raise ScenarioMismatch("need one weight per model")
    weights = [exact_rational(w) for w in weights]
    if any(w < 0 for w in weights) or sum(weights) != 1:
        raise RowNotNormalized("mixture weights must be nonnegative and sum to 1")
    s = models[0].scenario
    if any(m.scenario != s for m in models):
        raise ScenarioMismatch("models live on different scenarios")
    # Model k contributes w_k * n / den_k = scale_k * n / den for each numerator n.
    shares = [w / m.den for w, m in zip(weights, models)]
    den = lcm(*(q.denominator for q in shares))
    scales = [q.numerator * (den // q.denominator) for q in shares]
    rows = [
        [sum(map(mul, scales, column)) for column in zip(*per_model)]
        for per_model in zip(*(m.numerators for m in models))
    ]
    return make_model(s, rows, den)


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
        if len(values) != n or not all(map(is_bit, values)):
            raise NotASubset(f"assignment {values} is not {n} outcome bits")
        mass.append((values, exact_rational(w)))
    total = sum(w for _, w in mass)
    if total != 1:
        raise RowNotNormalized(f"global weights sum to {format_rational(total)}")
    if any(w < 0 for _, w in mass):
        raise NegativeEntry("negative global weight")
    den = lcm(*(w.denominator for _, w in mass))
    mass = [(values, w.numerator * (den // w.denominator)) for values, w in mass]
    position = {label: k for k, label in enumerate(s.observables)}
    rows = []
    for ctx in s.contexts:
        at = [position[label] for label in ctx]
        row = [0] * (1 << len(ctx))
        for values, w in mass:
            row[section_index([values[k] for k in at])] += w
        rows.append(row)
    return make_model(s, rows, den)


def deterministic_model(
    s: MeasurementScenario, values: Sequence[int]
) -> EmpiricalModel:
    """Point-mass model of a single global assignment."""
    return from_global_distribution(s, {tuple(values): 1})


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


def model_to_dict(m: EmpiricalModel) -> dict:
    """JSON form: scenario plus one rational-string row per context key."""
    return _rows_to_dict(m.scenario, [_over(row, m.den) for row in m.numerators], format_rational)


def model_from_dict(data: dict) -> EmpiricalModel:
    """Parse the JSON form of :func:`model_to_dict`; only its structure is checked here.

    ``tables`` holds one array per context key, none missing or unknown (else
    RowNotNormalized), and the rows go to :func:`make_model` unread.
    """
    expect_json(data, dict, "a table document")
    s = scenario_from_dict(json_field(data, "scenario"))
    tables = expect_json(json_field(data, "tables"), dict, "tables")
    keys = [_context_key(ctx) for ctx in s.contexts]
    extra = set(tables) - set(keys)
    if extra:
        raise RowNotNormalized(f"table rows for unknown contexts: {sorted(extra)}")
    for key in keys:
        if key not in tables:
            raise RowNotNormalized(f"missing table row for context {key!r}")
    return make_model(s, [expect_json(tables[key], list, f"table row {key!r}") for key in keys])


def possibilistic_to_dict(p: PossibilisticModel) -> dict:
    """Same shape as the model JSON, with rows replaced by 0/1 arrays."""
    rows = [support_row(mask, p.scenario.n_sections(c)) for c, mask in enumerate(p.masks)]
    return _rows_to_dict(p.scenario, rows, int)
