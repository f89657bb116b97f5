"""Hypothesis strategies shared by the property suites."""

from __future__ import annotations

import itertools
from fractions import Fraction

import hypothesis.strategies as st

from amcc.catalog import pr_box
from amcc.construct import parity_system, parity_to_possibilistic
from amcc.empirical import (
    PossibilisticModel,
    deterministic_model,
    lift_uniform,
    mix,
)
from amcc.scenario import bell_scenario

SCENARIO_22 = bell_scenario(2, 2)
SCENARIO_32 = bell_scenario(3, 2)

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
