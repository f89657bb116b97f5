"""Property suites, each run with at least 500 generated cases.

Defined here (not named test_*) so the acceptance module can re-run them and
report one line per suite; test_properties.py re-exports them for pytest.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amcc import analysis
from amcc.analysis import (
    avn_certificate,
    classify,
    contextual_fraction,
    incidence_matrix,
    is_strongly_contextual,
)
from amcc.construct import (
    boolean_no_signaling,
    parity_consistent,
    parity_to_possibilistic,
)
from amcc.empirical import (
    format_rational,
    from_global_distribution,
    is_maximal_marginal,
    is_no_signaling,
    lift_uniform,
    marginal,
    mix,
    parse_rational,
    possibilistic_collapse,
)
from amcc.errors import InternalConsistencyError, SignalingDetected
from amcc.ratlp import LinearProgram, maximize
from amcc.scenario import polytope_dimension, projection, section_index, section_values

from _generators import (
    flip_group,
    mixture_models_222,
    noisy_parity_lifts,
    ns_models_222,
    parity_systems,
    support_patterns_222,
    symmetric_models,
)
from _oracles import box_polytope_dimension

F = Fraction
CASES = settings(max_examples=500, deadline=None)
LAMBDAS = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))


@CASES
@given(ns_models_222())
def check_cf_one_iff_strongly_contextual(model):
    """The LP value hits 1 exactly when the exhaustive support scan is empty."""
    cf = contextual_fraction(model)
    strong, witness = is_strongly_contextual(model)
    assert (cf == 1) == strong
    assert 0 <= cf <= 1
    if cf == 0:
        # The CF optimum is then a global distribution reproducing every row.
        part = classify(model).witness["noncontextual_part"]
        dist = {tuple(map(int, bits)): parse_rational(w) for bits, w in part.items()}
        assert from_global_distribution(model.scenario, dist).tables == model.tables
    certified, _ = avn_certificate(model)
    assert certified == strong
    if witness is not None:
        # The witness really is compatible with every context's support.
        g = section_index(witness)
        for ctx, row in zip(model.scenario.contexts, model.tables):
            assert row[projection(model.scenario.observables, ctx)[g]] > 0


@CASES
@given(parity_systems())
def check_parity_consistency_matches_satisfiability(ps):
    """GF(2) consistency of the system == satisfiability of its support model."""
    consistent, payload = parity_consistent(ps)
    pattern = parity_to_possibilistic(ps)
    strong, _ = is_strongly_contextual(pattern)
    assert consistent == (not strong)
    # Half-support patterns are possibilistically no-signaling and their
    # uniform lifts have uniform within-context marginals.
    assert boolean_no_signaling(pattern) == (True, None)
    assert is_maximal_marginal(lift_uniform(pattern))[0]
    if consistent:
        for c in range(ps.scenario.n_contexts):
            total = sum(
                payload[ps.scenario.observables.index(x)]
                for x in ps.scenario.contexts[c]
            )
            assert total % 2 == ps.parities[c]
    else:
        acc_mask = 0
        acc_parity = 0
        for idx in payload:
            acc_mask ^= ps.coefficient_mask(idx)
            acc_parity ^= ps.parities[idx]
        assert (acc_mask, acc_parity) == (0, 1)


@CASES
@given(ns_models_222())
def check_marginal_agreement_on_overlaps(model):
    """No-signaling models agree marginally on every context intersection."""
    assert is_no_signaling(model) == (True, None)
    s = model.scenario
    for a in range(s.n_contexts):
        for b in range(a + 1, s.n_contexts):
            overlap = tuple(
                x for x in s.observables
                if x in set(s.contexts[a]) & set(s.contexts[b])
            )
            if not overlap:
                continue
            ma = marginal(model, a, overlap)
            assert ma == marginal(model, b, overlap)
            assert sum(ma) == 1


@CASES
@given(mixture_models_222(), mixture_models_222(), st.sampled_from(LAMBDAS))
def check_cf_convexity(a, b, lam):
    """CF of a mixture never exceeds the mixture of CFs."""
    mixed = mix([a, b], [lam, 1 - lam])
    assert contextual_fraction(mixed) <= lam * contextual_fraction(a) + (
        1 - lam
    ) * contextual_fraction(b)


@CASES
@given(support_patterns_222())
def check_possibilistic_roundtrip(pattern):
    """Collapsing the uniform lift returns the original support pattern.

    An asymmetric pattern's lift signals instead, and the witness then shows
    two different marginals on the contexts' overlap.
    """
    try:
        lifted = lift_uniform(pattern)
    except SignalingDetected as err:
        assert err.witness.marginal_a != err.witness.marginal_b
    else:
        assert possibilistic_collapse(lifted).masks == pattern.masks


@CASES
@given(st.integers(1, 3), st.integers(1, 3))
def check_polytope_dimension_formula(n_parties, settings_count):
    """The closed-form dimension matches the affine rank of the constraint system."""
    formula = polytope_dimension(
        [settings_count] * n_parties, [[2] * settings_count] * n_parties
    )
    assert formula == box_polytope_dimension(n_parties, settings_count)
    assert polytope_dimension([2, 2], [[2, 2]] * 2) == 8
    assert polytope_dimension([2, 2, 2], [[2, 2]] * 3) == 26


def _full_cf_optimum(model):
    """``maximize`` on the full contextual-fraction LP, one column per global assignment."""
    inc = incidence_matrix(model.scenario)
    return maximize(LinearProgram(
        objective=(1,) * len(inc[0]),
        a_le=inc,
        b_le=tuple(x for row in model.tables for x in row),
    ))


@CASES
@given(symmetric_models())
def check_orbit_cf_matches_full_lp(model):
    """The CF solved on flip orbits equals the full LP's, and the flip group is found exactly.

    With a trivial flip group the orbit LP is the full LP, so ``classify``
    reports the full LP's optimum as the noncontextual part.  Otherwise that
    part is constant on every coset of the group and sums to 1 - CF.
    """
    full = _full_cf_optimum(model)
    cf = contextual_fraction(model)
    assert cf == 1 - full.value
    group = flip_group(model)
    found = analysis._flip_group(model.scenario, tuple(map(analysis._stabilizer, model.tables)))
    assert [h for h in range(found.bit_length()) if (found >> h) & 1] == group
    if cf == 1:
        return
    n = len(model.scenario.observables)
    part = classify(model).witness["noncontextual_part"]
    if len(group) == 1:
        expected = {
            "".join(map(str, section_values(g, n))): format_rational(w)
            for g, w in enumerate(full.solution) if w
        }
        assert part == expected
    else:
        weight = [parse_rational(part.get("".join(map(str, section_values(g, n))), "0"))
                  for g in range(1 << n)]
        assert all(weight[g ^ h] == weight[g] for g in range(1 << n) for h in group)
        assert sum(weight) == 1 - cf


def _unshared_row_duals(orbits):
    return replace(orbits, row_size=(1,) * len(orbits.row_size))


def _unscaled_orbit_columns(orbits):
    return replace(orbits, order=1)


@CASES
@given(noisy_parity_lifts(min_noise=1))
def check_orbit_lift_mutations_fail_certificate(model):
    """A lift that drops the 1/|R| dual share or the |H| column weight fails the full-LP check.

    Every model drawn has CF < 1, so the lifted objective is nonzero and
    either mistake breaks the primal-dual equalities.
    """
    real = analysis._orbit_lp
    for mutate in (_unshared_row_duals, _unscaled_orbit_columns):
        with mock.patch.object(analysis, "_orbit_lp", lambda s, group: mutate(real(s, group))):
            with pytest.raises(InternalConsistencyError, match="certificate"):
                contextual_fraction(model)


ALL_SUITES = (
    ("cf=1 iff strongly contextual", check_cf_one_iff_strongly_contextual),
    ("parity consistency iff CSP satisfiable", check_parity_consistency_matches_satisfiability),
    ("marginal agreement on overlaps", check_marginal_agreement_on_overlaps),
    ("CF convexity under mixtures", check_cf_convexity),
    ("collapse of uniform lift is identity", check_possibilistic_roundtrip),
    ("polytope dimension formula", check_polytope_dimension_formula),
)
