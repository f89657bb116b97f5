"""Hypothesis strategies shared by the property suites."""

from __future__ import annotations

import itertools
from fractions import Fraction

import hypothesis.strategies as st

from amcc.catalog import pr_box
from amcc.construct import eight_param_family, parity_system, parity_to_possibilistic
from amcc.empirical import (
    PossibilisticModel,
    deterministic_model,
    lift_uniform,
    make_model,
    mix,
)
from amcc.scenario import bell_scenario, make_scenario, projection, section_values

SCENARIO_22 = bell_scenario(2, 2)
SCENARIO_32 = bell_scenario(3, 2)
SCENARIO_24 = bell_scenario(2, 4)

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


def flipped_tables(model, h):
    """The tables of ``model`` with the outcomes negated of the observables set in ``h``.

    ``h`` is a global assignment index read as a set of observables.
    """
    s = model.scenario
    out = []
    for ctx, row in zip(s.contexts, model.tables):
        f = projection(s.observables, ctx)[h]
        out.append(tuple(row[sec ^ f] for sec in range(len(row))))
    return tuple(out)


def flip_group(model):
    """Every global flip that fixes every context table, by brute force."""
    n = len(model.scenario.observables)
    return [h for h in range(1 << n) if flipped_tables(model, h) == model.tables]


def cycle_scenario(n):
    """``n`` observables ``Y0..Y{n-1}`` with the ``n`` two-label contexts ``(Yk, Yk+1 mod n)``."""
    labels = [f"Y{k}" for k in range(n)]
    return make_scenario(labels, [(labels[k], labels[(k + 1) % n]) for k in range(n)])


def uniform_model(s):
    return make_model(
        s, [[Fraction(1, s.n_sections(c))] * s.n_sections(c) for c in range(s.n_contexts)]
    )


def _parity_lift(s, bits):
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
            parts.append(_parity_lift(s, bits))
    weights = draw(st.lists(st.integers(1, 6), min_size=len(parts), max_size=len(parts)))
    return mix(parts, [Fraction(w, sum(weights)) for w in weights])


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
    return mix([_parity_lift(s, bits), uniform_model(s)], [1 - lam, lam])


EIGHT_PARAM_VALUES = tuple(Fraction(k, 16) for k in range(5))


def eight_param_points():
    return st.lists(
        st.sampled_from(EIGHT_PARAM_VALUES), min_size=8, max_size=8
    ).map(eight_param_family)


def symmetric_models():
    """Models whose outcome-flip group is often nontrivial."""
    return st.one_of(flip_averaged_models(), noisy_parity_lifts(), eight_param_points())
