"""Hypothesis strategies and generated inputs shared by the test suites.

The LP helpers at the end let a test write a program with Fractions, as its
oracles read it, solve it in the integers the solver takes, and read any
outcome, integer numerators over one denominator, as rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from math import lcm

import hypothesis.strategies as st

from amcc.catalog import pr_box
from amcc.construct import eight_param_family, parity_system, parity_to_possibilistic
from amcc.empirical import (
    EmpiricalModel,
    PossibilisticModel,
    deterministic_model,
    lift_uniform,
    make_model,
    mix,
    possibilistic_collapse,
)
from amcc.ratlp import LinearProgram, LpOutcome, LpStatus, maximize
from amcc.scenario import (
    bell_scenario, make_scenario, scenario_to_dict, section_index, section_values,
)

SCENARIO_22 = bell_scenario(2, 2)
SCENARIO_32 = bell_scenario(3, 2)
SCENARIO_24 = bell_scenario(2, 4)
SCENARIO_42 = bell_scenario(4, 2)
#: Contexts of one and two observables.
MIXED_WIDTHS = make_scenario(["A", "B", "C"], [["A", "B"], ["C"]])

#: Extremal (2,2,2) models: the 16 deterministic points and the 8 PR boxes.
VERTICES_222 = [
    deterministic_model(SCENARIO_22, values)
    for values in itertools.product((0, 1), repeat=4)
] + [
    pr_box(a, b, g) for a in (0, 1) for b in (0, 1) for g in (0, 1)
]


@st.composite
def mixture_models_222(draw):
    """No-signaling (2,2,2) models: sparse rational mixtures of the vertices."""
    k = draw(st.integers(min_value=1, max_value=4))
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(VERTICES_222) - 1), st.integers(1, 6)
            ),
            min_size=k,
            max_size=k,
        )
    )
    total = sum(w for _, w in picks)
    models = [VERTICES_222[i] for i, _ in picks]
    weights = [Fraction(w, total) for _, w in picks]
    return mix(models, weights)


@st.composite
def parity_lift_models(draw):
    """Uniform lifts of parity half-support patterns on (2,2,2) or (3,2,2)."""
    s = draw(st.sampled_from([SCENARIO_22, SCENARIO_32]))
    bits = draw(
        st.lists(st.integers(0, 1), min_size=s.n_contexts, max_size=s.n_contexts)
    )
    return lift_uniform(parity_to_possibilistic(parity_system(s, bits)))


def ns_models_222():
    """Models whose contextual fraction can land anywhere in [0, 1]."""
    return st.one_of(mixture_models_222(), parity_lift_models())


@st.composite
def parity_systems(draw):
    s = draw(st.sampled_from([SCENARIO_22, SCENARIO_32]))
    bits = draw(
        st.lists(st.integers(0, 1), min_size=s.n_contexts, max_size=s.n_contexts)
    )
    return parity_system(s, bits)


@st.composite
def support_patterns_222(draw):
    """Arbitrary nonempty support masks on (2,2,2)."""
    masks = tuple(draw(st.integers(1, 0b1111)) for _ in range(SCENARIO_22.n_contexts))
    return PossibilisticModel(scenario=SCENARIO_22, masks=masks)


@st.composite
def mask_tuples(draw):
    """A scenario and int masks, mostly fitting it; some too few, too many, negative or wide."""
    s = draw(st.sampled_from([SCENARIO_22, SCENARIO_32, MIXED_WIDTHS]))
    masks = [draw(st.integers(0, (1 << s.n_sections(c)) - 1)) for c in range(s.n_contexts)]
    for _ in range(draw(st.integers(0, 2))):
        masks[draw(st.integers(0, s.n_contexts - 1))] = draw(st.integers())
    count = draw(st.sampled_from([s.n_contexts] * 4 + [s.n_contexts - 1, s.n_contexts + 1]))
    return s, tuple((masks + [draw(st.integers())])[:count])


def fraction_rows(model):
    """The model's rows as Fractions: each integer numerator over ``model.den``."""
    return tuple(tuple(Fraction(x, model.den) for x in row) for row in model.numerators)


def flipped_tables(model, h):
    """The tables of ``model`` with the outcomes negated of the observables set in ``h``.

    ``h`` is a global assignment index read as a set of observables.
    """
    s = model.scenario
    flips = dict(zip(s.observables, section_values(h, len(s.observables))))
    out = []
    for ctx, row in zip(s.contexts, fraction_rows(model)):
        f = section_index([flips[x] for x in ctx])
        out.append(tuple(row[sec ^ f] for sec in range(len(row))))
    return tuple(out)


def flip_group(model):
    """Every global flip that fixes every context table, by brute force."""
    n = len(model.scenario.observables)
    return [h for h in range(1 << n) if flipped_tables(model, h) == fraction_rows(model)]


def cycle_scenario(n):
    """``n`` observables ``Y0..Y{n-1}`` with the ``n`` two-label contexts ``(Yk, Yk+1 mod n)``."""
    labels = [f"Y{k}" for k in range(n)]
    return make_scenario(labels, [(labels[k], labels[(k + 1) % n]) for k in range(n)])


CYCLE_5 = cycle_scenario(5)


def singleton_scenario(n):
    """``n`` observables ``Y0..Y{n-1}``, each its own one-label context."""
    labels = [f"Y{k}" for k in range(n)]
    return make_scenario(labels, [(label,) for label in labels])


def large_denominator_document(shape):
    """A model document whose cells carry distinct 100-digit denominators.

    ``"wide-row"`` is one 12-observable context with cells ``1/(10**99 + k)``
    (not normalized); ``"singletons"`` is 3000 one-label contexts, row ``k``
    being ``1/d, (d-1)/d`` with ``d = 10**99 + k`` (every row normalized).
    """
    base = 10**99
    if shape == "wide-row":
        labels = [f"Y{k}" for k in range(12)]
        s = make_scenario(labels, [labels])
        tables = {"|".join(labels): [f"1/{base + k}" for k in range(1 << 12)]}
    else:
        s = singleton_scenario(3000)
        tables = {f"Y{k}": [f"1/{base + k}", f"{base + k - 1}/{base + k}"] for k in range(3000)}
    return {"scenario": scenario_to_dict(s), "tables": tables}


def uniform_model(s):
    return make_model(
        s, [[Fraction(1, s.n_sections(c))] * s.n_sections(c) for c in range(s.n_contexts)]
    )


def parity_lift(s, bits):
    """The uniform lift of the parity system ``bits`` on ``s``."""
    return lift_uniform(parity_to_possibilistic(parity_system(s, bits)))


@st.composite
def vertex_mixtures(draw, s):
    """Rational mixtures of one to three deterministic models and parity lifts on ``s``."""
    n = len(s.observables)
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            g = draw(st.integers(0, (1 << n) - 1))
            parts.append(deterministic_model(s, section_values(g, n)))
        else:
            bits = draw(st.lists(st.integers(0, 1), min_size=s.n_contexts, max_size=s.n_contexts))
            parts.append(parity_lift(s, bits))
    weights = draw(st.lists(st.integers(1, 6), min_size=len(parts), max_size=len(parts)))
    return mix(parts, [Fraction(w, sum(weights)) for w in weights])


@st.composite
def raw_models(draw):
    """A bare :class:`EmpiricalModel`, built without validation and often signaling.

    Either random rows that each sum to a random ``den``, or a vertex
    mixture with up to two units of mass moved inside rows, so the first
    failing pair and the first non-uniform marginal land anywhere.  Scenarios
    include mixed context widths and the 5-cycle.
    """
    s = draw(st.sampled_from([SCENARIO_22, SCENARIO_32, SCENARIO_24, MIXED_WIDTHS, CYCLE_5]))
    if draw(st.booleans()):
        den = draw(st.integers(1, 12))
        rows = []
        for c in range(s.n_contexts):
            width = s.n_sections(c)
            cuts = draw(st.lists(st.integers(0, den), min_size=width - 1, max_size=width - 1))
            cuts.sort()
            rows.append([hi - lo for lo, hi in zip([0] + cuts, cuts + [den])])
    else:
        base = draw(vertex_mixtures(s))
        den, rows = base.den, [list(row) for row in base.numerators]
        for _ in range(draw(st.integers(0, 2))):
            row = rows[draw(st.integers(0, s.n_contexts - 1))]
            source = draw(st.sampled_from([sec for sec, x in enumerate(row) if x]))
            row[source] -= 1
            row[draw(st.integers(0, len(row) - 1))] += 1
    return EmpiricalModel(s, den, tuple(map(tuple, rows)))


@st.composite
def near_uniform_marginal_models(draw):
    """A bare :class:`EmpiricalModel` whose proper marginals start uniform, often perturbed.

    A parity lift or the uniform model on a scenario of :func:`raw_models`,
    its denominator scaled by up to 4, then up to two changes to one row
    each: a correlation move, ``t`` added on the sections of even weight and
    taken from those of odd weight, which keeps every proper marginal
    uniform, or one unit of mass moved between two sections, which breaks
    at least one marginal that leaves out a single label.
    """
    s = draw(st.sampled_from([SCENARIO_22, SCENARIO_32, SCENARIO_24, MIXED_WIDTHS, CYCLE_5]))
    if draw(st.booleans()):
        base = parity_lift(
            s, draw(st.lists(st.integers(0, 1), min_size=s.n_contexts, max_size=s.n_contexts)))
    else:
        base = uniform_model(s)
    scale = draw(st.integers(1, 4))
    rows = [[x * scale for x in row] for row in base.numerators]
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, s.n_contexts - 1))]
        if draw(st.booleans()):
            odd = [sec.bit_count() & 1 for sec in range(len(row))]
            low = min(x for x, o in zip(row, odd) if not o)
            high = min(x for x, o in zip(row, odd) if o)
            t = draw(st.integers(-low, high))
            row[:] = [x - t if o else x + t for x, o in zip(row, odd)]
        else:
            source = draw(st.sampled_from([sec for sec, x in enumerate(row) if x]))
            row[source] -= 1
            row[(source + draw(st.integers(1, len(row) - 1))) % len(row)] += 1
    return EmpiricalModel(s, base.den * scale, tuple(map(tuple, rows)))


@st.composite
def support_patterns(draw):
    """Support masks on the scenarios of :func:`raw_models`.

    Either the support of a raw model, so often Boolean no-signaling or
    failing on a late pair, or arbitrary masks, empty ones included.
    """
    if draw(st.booleans()):
        return possibilistic_collapse(draw(raw_models()))
    s = draw(st.sampled_from([SCENARIO_22, SCENARIO_32, SCENARIO_24, MIXED_WIDTHS, CYCLE_5]))
    masks = tuple(draw(st.integers(0, (1 << s.n_sections(c)) - 1)) for c in range(s.n_contexts))
    return PossibilisticModel(s, masks)


@st.composite
def flip_averaged_models(draw):
    """A vertex mixture on (2,2,2), (3,2,2) or (2,4,2) averaged over a random flip subgroup.

    With no generators drawn the model is left as it is, so most of those
    have a trivial flip group.
    """
    s = draw(st.sampled_from([SCENARIO_22, SCENARIO_32, SCENARIO_24]))
    model = draw(vertex_mixtures(s))
    group = {0}
    for h in draw(st.lists(st.integers(1, (1 << len(s.observables)) - 1), max_size=3)):
        group |= {g ^ h for g in group}
    members = [make_model(s, flipped_tables(model, h)) for h in sorted(group)]
    return mix(members, [Fraction(1, len(group))] * len(group))


@st.composite
def noisy_parity_lifts(draw, min_noise=0):
    """Parity lifts on (2,2,2) or (3,2,2) mixed with the uniform model.

    The noise weight is ``k/8`` for ``min_noise <= k <= 8``.
    """
    s = draw(st.sampled_from([SCENARIO_22, SCENARIO_32]))
    bits = draw(st.lists(st.integers(0, 1), min_size=s.n_contexts, max_size=s.n_contexts))
    lam = Fraction(draw(st.integers(min_noise, 8)), 8)
    return mix([parity_lift(s, bits), uniform_model(s)], [1 - lam, lam])


EIGHT_PARAM_VALUES = tuple(Fraction(k, 16) for k in range(5))


def eight_param_points():
    return st.lists(
        st.sampled_from(EIGHT_PARAM_VALUES), min_size=8, max_size=8
    ).map(eight_param_family)


def symmetric_models():
    """Models whose outcome-flip group is often nontrivial."""
    return st.one_of(flip_averaged_models(), noisy_parity_lifts(), eight_param_points())


def even_flips(s):
    """The global flips that change an even number of outcomes in every context of ``s``.

    They fix every parity lift and the uniform model; on bell-2-4 they are
    the identity and the all-ones flip, on bell-4-2 a group of order 8.
    """
    n = len(s.observables)
    masks = [sum(1 << (n - 1 - s.observables.index(x)) for x in ctx) for ctx in s.contexts]
    return [h for h in range(1 << n) if all(bin(h & mask).count("1") % 2 == 0 for mask in masks)]


@st.composite
def refinable_models(draw):
    """Symmetric models on bell-2-4 and bell-4-2 whose orbit LP mostly has at least 1 024 nonzeros.

    A parity lift, uniform noise and, on bell-4-2 always and on bell-2-4 at
    times, a deterministic model averaged over a group of even flips, the
    lift and the averaged model with positive weight.  The flip group is
    then usually the averaging group (order 4 on bell-4-2, 64 cosets) or at
    most the lift's (order 2 on bell-2-4, 128 cosets); a few mixes are fixed
    by more flips and have a smaller orbit LP.
    """
    s = draw(st.sampled_from([SCENARIO_24, SCENARIO_42]))
    n = len(s.observables)
    bits = draw(st.lists(st.integers(0, 1), min_size=s.n_contexts, max_size=s.n_contexts))
    parts = [parity_lift(s, bits), uniform_model(s)]
    if s is SCENARIO_42 or draw(st.booleans()):
        g = draw(st.integers(0, (1 << n) - 1))
        group = {0}
        while len(group) < (4 if s is SCENARIO_42 else draw(st.sampled_from([1, 2]))):
            h = draw(st.sampled_from([h for h in even_flips(s) if h not in group]))
            group |= {f ^ h for f in group}
        point = deterministic_model(s, section_values(g, n))
        members = [make_model(s, flipped_tables(point, h)) for h in sorted(group)]
        parts.append(mix(members, [Fraction(1, len(group))] * len(group)))
    weights = [draw(st.integers(1, 6)), draw(st.integers(0, 6))]
    weights += [draw(st.integers(1, 6)) for _ in parts[2:]]
    return mix(parts, [Fraction(w, sum(weights)) for w in weights])


def integer_program(lp: LinearProgram):
    """``(program, row_scales, scale)``: ``lp``, written with Fractions, scaled to integers.

    Row ``k`` (equality rows first) and its right-hand side are multiplied by
    ``row_scales[k]``, the lcm of their denominators, and the objective by
    ``scale``, the lcm of its own.  The scaled program has the same feasible
    points, and its optimum is ``scale`` times ``lp``'s.
    """
    def scaled(rows, rhs):
        factors = [
            lcm(Fraction(b).denominator, *(Fraction(a).denominator for _, a in row))
            for row, b in zip(rows, rhs)
        ]
        return (tuple(tuple((j, int(a * d)) for j, a in row) for row, d in zip(rows, factors)),
                tuple(int(b * d) for b, d in zip(rhs, factors)), factors)

    a_eq, b_eq, eq_scales = scaled(lp.a_eq, lp.b_eq)
    a_le, b_le, le_scales = scaled(lp.a_le, lp.b_le)
    scale = lcm(*(Fraction(c).denominator for c in lp.objective))
    objective = tuple(int(c * scale) for c in lp.objective)
    return LinearProgram(objective, a_eq, b_eq, a_le, b_le), eq_scales + le_scales, scale


def rational(out: LpOutcome, row_scales=None, scale: int = 1) -> LpOutcome:
    """``out`` read as rationals: its value, solution and dual as Fractions, ``den`` 1.

    The one place the tests read an outcome's numbers.  It first checks the
    integer contract: an OPTIMAL or FEASIBLE outcome carries ``den > 0``
    and every entry it has is an ``int`` numerator over it.  With the
    ``row_scales`` and ``scale`` of :func:`integer_program`, the value is
    divided by the objective's scale, and the dual of row ``k`` is
    multiplied by its row's scale and divided by the objective's, which
    makes it a dual of the program as written; the primal is the same point.
    """
    if out.status not in (LpStatus.OPTIMAL, LpStatus.FEASIBLE):
        return out
    den = out.den
    numbers = [out.value] + list(out.solution) + list(out.dual or ())
    assert type(den) is int and den > 0, den
    assert all(type(v) is int for v in numbers if v is not None), numbers
    return replace(
        out,
        value=None if out.value is None else Fraction(out.value, den * scale),
        solution=tuple(Fraction(v, den) for v in out.solution),
        dual=None if out.dual is None else tuple(
            Fraction(y * d, den * scale) for y, d in zip(out.dual, row_scales or itertools.repeat(1))
        ),
        den=1,
    )


def maximize_as_written(lp: LinearProgram) -> LpOutcome:
    """``maximize`` on :func:`integer_program` of ``lp``, read back in ``lp``'s own units by :func:`rational`."""
    program, row_scales, scale = integer_program(lp)
    return rational(maximize(program), row_scales, scale)


def random_lp(rng):
    """A small LP written with Fractions: equality rows, negative right-hand sides, at times a redundant row.

    About half are built around a nonnegative point, so they are feasible;
    the rest are often infeasible or unbounded.  :func:`integer_program`
    scales it to the integers ``maximize`` takes.
    """
    n = rng.randint(1, 6)

    def row():
        return tuple(
            (j, a) for j in range(n)
            if (a := rng.choice((0, 0, 0, 1, 1, 2, -1, -3, Fraction(1, 2), Fraction(-5, 3))))
        )

    point = [rng.choice((0, 0, 1, 2, Fraction(1, 3))) for _ in range(n)]
    around = rng.random() < 0.5
    a_eq = [row() for _ in range(rng.randint(0, 3))]
    if a_eq and rng.random() < 0.4:
        a_eq.append(tuple((j, -2 * a) for j, a in rng.choice(a_eq)))
    a_le = [row() for _ in range(rng.randint(0, 3))]
    b_eq = [
        sum(a * point[j] for j, a in r) if around else rng.randint(-3, 5) for r in a_eq
    ]
    b_le = [
        sum(a * point[j] for j, a in r) + rng.choice((0, 1)) if around
        else rng.choice((0, -2, 3, Fraction(-7, 2), Fraction(9, 4))) for r in a_le
    ]
    objective = tuple(rng.choice((0, 1, 2, -1, Fraction(1, 2))) for _ in range(n))
    return LinearProgram(objective, tuple(a_eq), tuple(b_eq), tuple(a_le), tuple(b_le))
