import itertools
import time
from operator import itemgetter
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest

from amcc import analysis, ratlp, scenario
from amcc.analysis import (
    avn_certificate,
    classify,
    contextual_fraction,
    incidence_matrix,
    is_strongly_contextual,
    restriction_table,
)
from amcc.catalog import asymmetric_scc_model, ghz_model, pr_box, three_way_box
from amcc.construct import eight_param_family, parity_system, parity_to_possibilistic
from amcc.empirical import (
    EmpiricalModel,
    PossibilisticModel,
    deterministic_model,
    from_global_distribution,
    lift_uniform,
    make_model,
    mix,
    possibilistic_collapse,
)
from amcc.errors import InternalConsistencyError, ShapeMismatch, SignalingInput, TooLarge
from amcc.scenario import SCENARIO_CACHE_SIZE, bell_scenario, make_scenario

from _generators import cycle_scenario, fraction_rows, singleton_scenario, uniform_model
from _oracles import chsh_noisy_cf, incidence_bruteforce
from model_json import model as named_model
from property_suites import (
    classes_of,
    full_lp_accepts,
    lift_inputs,
    lifted,
    outcome,
    quotient_accepts,
    wrong_pairs,
)

F = Fraction
H = F(1, 2)
Q = F(1, 4)
S22 = bell_scenario(2, 2)
S32 = bell_scenario(3, 2)


def test_incidence_matrix_shapes():
    # (rows, columns, stored pairs): each row of a k-label context holds
    # 2**(n - k) of the 2**n columns.
    shapes = {S32: (64, 64, 512), S22: (16, 16, 64), bell_scenario(5, 2): (1024, 1024, 32768)}
    for s, shape in shapes.items():
        inc = incidence_matrix(s)
        columns = {g for row in inc for g, _ in row}
        assert (len(inc), len(columns), sum(map(len, inc))) == shape
        assert columns == set(range(shape[1]))


def test_incidence_matrix_single_context_is_identity():
    s = make_scenario(["A"], [["A"]])
    inc = incidence_matrix(s)
    assert inc == (((0, 1),), ((1, 1),))


def test_incidence_matrix_column_sums_equal_context_count():
    inc = incidence_matrix(S32)
    sums = [0] * 64
    for row in inc:
        for g, a in row:
            sums[g] += a
    assert sums == [8] * 64


INCIDENCE_SCENARIOS = {
    "bell-2-2": S22,
    "bell-3-2": S32,
    "bell-2-4": bell_scenario(2, 4),
    "cycle-6": cycle_scenario(6),
}


@pytest.mark.parametrize("name", sorted(INCIDENCE_SCENARIOS))
def test_incidence_matrix_matches_bruteforce(name):
    s = INCIDENCE_SCENARIOS[name]
    assert incidence_matrix(s) == incidence_bruteforce(s.observables, s.contexts)


@pytest.mark.parametrize("name", sorted(INCIDENCE_SCENARIOS))
def test_orbit_lp_of_trivial_group_is_incidence_matrix(name):
    # Group 1 holds only the identity flip: every assignment is its own
    # column and every (context, section) row its own orbit.
    # The certificate gets no generator and one column getter per assignment,
    # reading the rows that assignment restricts to.
    s = INCIDENCE_SCENARIOS[name]
    quotient = analysis._quotient(s, 1)
    lp = quotient.lp
    n_rows = sum(s.n_sections(c) for c in range(s.n_contexts))
    n = 1 << len(s.observables)
    assert lp.objective == (1,) * n
    assert lp.a_le == incidence_bruteforce(s.observables, s.contexts)
    assert classes_of(lp.lift_columns, n) == tuple(range(n))
    assert classes_of(lp.lift_rows, n_rows) == tuple(range(n_rows))
    assert lp.row_split == (1,) * n_rows
    assert lp.row_reps == tuple(range(n_rows))
    assert quotient.generators == ()
    rows_hit = [[] for _ in range(n)]
    for r, row in enumerate(lp.a_le):
        for g, _ in row:
            rows_hit[g].append(r)
    assert [list(rows(range(n_rows))) for rows in quotient.columns] == rows_hit


def test_incidence_matrix_and_cf_build_only_the_orbit_lp_they_solve():
    # The full rows come straight from the restriction table, and a CF
    # builds the orbit LP of its own flip group, of order 4 here, only.
    for cache in (analysis.incidence_matrix, analysis._quotient):
        cache.cache_clear()
    incidence_matrix(bell_scenario(2, 3))
    assert analysis._quotient.cache_info().currsize == 0
    assert contextual_fraction(named_model("bell-3-2-odd-noise")) == F(1, 6)
    assert analysis._quotient.cache_info().currsize == 1


def test_a_solve_of_an_orbit_lp_checks_no_row_again():
    # The orbit LP's rows are checked when it is built: a solve checks only
    # the objective and the right-hand sides.
    for cache in (analysis.incidence_matrix, analysis._quotient):
        cache.cache_clear()
    m = named_model("bell-3-2-odd-noise")
    group = analysis._flip_group(m.scenario, tuple(map(analysis._stabilizer, m.numerators)))
    lp = analysis._quotient(m.scenario, group).lp
    full = list(itertools.chain(*m.numerators))
    b = [full[r] for r in lp.row_reps]
    with mock.patch.object(ratlp, "_exact", side_effect=ratlp._exact) as exact:
        out = ratlp.maximize(ratlp.LinearProgram(objective=lp.objective, a_le=lp.a_le, b_le=b))
    assert out.status is ratlp.LpStatus.OPTIMAL
    assert exact.call_count == len(lp.objective) + len(b)


def test_incidence_matrix_guard():
    labels = [f"Y{k}" for k in range(26)]  # bell_scenario refuses 26 observables itself
    s = make_scenario(labels, [labels[:13], labels[13:]])
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        incidence_matrix(s)
    assert time.perf_counter() - start < 1  # refused before anything 2**26 long is built


def test_cf_lp_guard_fires_before_any_table():
    # 60 rows x 2**15 global assignments is about 2M LP entries; bell-5-2,
    # at exactly LP_ENTRY_LIMIT, is still solved (see NOISY_LIFT_CF below).
    model = uniform_model(cycle_scenario(15))
    with pytest.raises(TooLarge, match="LP guard"):
        restriction_table(model.scenario)
    with pytest.raises(TooLarge, match="LP guard"):
        contextual_fraction(model)


def test_guard_fires_before_a_mask_over_global_assignments():
    # A mask over 2**3000 assignments cannot even be allocated, so every
    # decision must reach the LP guard before building one.
    model = uniform_model(singleton_scenario(3000))
    for decide in (contextual_fraction, classify, is_strongly_contextual):
        with pytest.raises(TooLarge, match="LP guard"):
            decide(model)


def test_guard_fires_before_any_flip_table(monkeypatch):
    # One context of 12 labels: 4 096 rows x 2**12 assignments is past the
    # LP guard.  Its stabilizer used to be computed first, filling the
    # width-12 flip table (4 096 getters of 4 096 positions, about 600 MB).
    labels = [f"Y{k}" for k in range(12)]
    model = uniform_model(make_scenario(labels, [labels]))
    built = []
    monkeypatch.setattr(analysis, "_section_flips", lambda width: built.append(width) or ())
    for decide in (contextual_fraction, classify):
        with pytest.raises(TooLarge, match="LP guard"):
            decide(model)
    assert built == []


def test_is_contextual_rejects_signaling_input():
    # make_model rejects this table, so build the dataclass directly.
    rows = [
        (1, 0, 0, 0),
        (0, 0, H, H),
        (H, 0, H, 0),
        (H, 0, 0, H),
    ]
    model = EmpiricalModel(S22, 2, tuple(tuple(int(2 * x) for x in row) for row in rows))
    with pytest.raises(SignalingInput):
        contextual_fraction(model)
    with pytest.raises(SignalingInput):
        classify(model)


def test_contextual_fraction_extremes():
    assert contextual_fraction(pr_box(1, 1, 1)) == 1
    assert contextual_fraction(deterministic_model(S22, (0, 0, 0, 0))) == 0


def test_contextual_fraction_even_mixture_is_half():
    # Upper bound 1/2 comes from the explicit decomposition used to build the
    # mixture; the LP provides the matching lower bound.
    mixed = mix(
        [pr_box(0, 0, 0), deterministic_model(S22, (0, 0, 0, 0))], [H, H]
    )
    assert contextual_fraction(mixed) == H


def test_strong_contextuality_scan():
    assert is_strongly_contextual(pr_box(0, 0, 0)) == (True, None)
    assert is_strongly_contextual(asymmetric_scc_model()) == (True, None)
    uniform = make_model(S22, [(Q, Q, Q, Q)] * 4)
    assert is_strongly_contextual(uniform) == (False, (0, 0, 0, 0))
    # The possibilistic form is accepted directly.
    assert is_strongly_contextual(possibilistic_collapse(pr_box(0, 0, 0)))[0]


def test_support_scan_refuses_a_mask_count_other_than_the_context_count():
    # One mask on bell-2-2 used to be scanned as if it were the whole model.
    for masks in ((1,), (0xF,) * 6):
        with pytest.raises(ShapeMismatch, match=f"{len(masks)} support masks for 4 contexts"):
            is_strongly_contextual(PossibilisticModel(S22, masks))


def test_support_scan_refuses_a_mask_bit_past_the_last_section():
    # Bit 4 of a four-section context used to count as no support at all,
    # so this pattern was reported strongly contextual.
    with pytest.raises(ShapeMismatch, match="context 0 has a bit past section 3"):
        is_strongly_contextual(PossibilisticModel(S22, (0x10, 0xF, 0xF, 0xF)))


def test_support_scan_refuses_a_negative_mask():
    # A mask of -1 used to count as full support and yield a global assignment.
    with pytest.raises(ShapeMismatch, match="context 0 has a bit past section 3"):
        is_strongly_contextual(PossibilisticModel(S22, (-1, 0xF, 0xF, 0xF)))


def test_avn_certificate_pr_box():
    ok, cert = avn_certificate(pr_box(0, 0, 0))
    assert ok and len(cert.entries) == 16
    # Assignment (0,0,0,0) restricts to (0,0) everywhere; the first zero is
    # in the anticorrelated context {X1p, X2p}.
    assert cert.entries[0] == (3, 0)
    for g, (c, sec) in enumerate(cert.entries):
        assert fraction_rows(pr_box(0, 0, 0))[c][sec] == 0


def test_avn_certificate_ghz_size():
    ok, cert = avn_certificate(ghz_model())
    assert ok and len(cert.entries) == 64


def test_avn_certificate_fails_on_noncontextual_model():
    assert avn_certificate(deterministic_model(S22, (0, 0, 0, 0))) == (False, (0, 0, 0, 0))


def test_classify_catalog_reports():
    pr = classify(pr_box(0, 0, 0))
    assert (pr.cf, pr.strongly_contextual, pr.maximal_marginal, pr.amcc) == (
        F(1),
        True,
        True,
        True,
    )
    table1 = classify(asymmetric_scc_model())
    assert (table1.cf, table1.strongly_contextual, table1.maximal_marginal, table1.amcc) == (
        F(1),
        True,
        False,
        False,
    )
    ghz = classify(ghz_model())
    assert ghz.amcc and ghz.cf == 1
    box = classify(three_way_box())
    assert box.amcc


def test_classify_report_invariants_and_witnesses():
    report = classify(mix([pr_box(0, 0, 0), deterministic_model(S22, (0, 0, 0, 0))], [H, H]))
    assert report.cf + report.ncf == 1
    assert report.cf == H
    assert not report.strongly_contextual
    part = report.witness["noncontextual_part"]
    assert sum(Fraction(w) for w in part.values()) == H
    payload = report.to_dict()
    assert payload["cf"] == "1/2" and payload["ncf"] == "1/2"


def test_classify_noncontextual_product_model():
    report = classify(deterministic_model(S22, (1, 1, 0, 0)))
    assert report.cf == 0 and not report.amcc
    assert report.witness["noncontextual_part"] == {"1100": "1"}


def test_classify_avn_witness_shape():
    report = classify(pr_box(0, 0, 0))
    avn = report.to_dict()["witness"]["avn"]
    assert len(avn) == 16
    assert avn[0] == {"assignment": "0000", "context": ["X1p", "X2p"], "section": "00"}
    assert "avn" not in report.to_dict(include_avn=False)["witness"]


def test_scenario_caches_are_bounded():
    # Relabelled copies of bell-2-2 are distinct cache keys; each cache must
    # evict instead of keeping every scenario's tables.
    caches = (
        analysis.restriction_table, analysis.global_masks, analysis.incidence_matrix,
        analysis._flip_group, analysis._quotient, scenario.overlaps, scenario.projection,
    )
    for k in range(SCENARIO_CACHE_SIZE + 8):
        a, ap, b, bp = (f"{x}{k}" for x in ("A", "Ap", "B", "Bp"))
        s = make_scenario((a, ap, b, bp), ((a, b), (a, bp), (ap, b), (ap, bp)))
        assert classify(uniform_model(s)).cf == 0
        for cache in caches:
            assert cache.cache_info().currsize <= SCENARIO_CACHE_SIZE
    for cache in caches:
        assert cache.cache_info().currsize == SCENARIO_CACHE_SIZE


def test_classify_global_lift_of_distribution_is_noncontextual():
    weights = {(0, 0, 0, 0): F(1, 3), (1, 0, 1, 1): F(2, 3)}
    model = from_global_distribution(S22, weights)
    report = classify(model)
    assert report.cf == 0
    assert report.witness["noncontextual_part"] == {"0000": "1/3", "1011": "2/3"}


def noisy_one_odd_lift(n_parties, lam):
    """The uniform lift of the parity system with only context 0 odd, mixed with white noise."""
    s = bell_scenario(n_parties, 2)
    lift = lift_uniform(parity_to_possibilistic(parity_system(s, (1,) + (0,) * (s.n_contexts - 1))))
    return mix([lift, uniform_model(s)], [1 - lam, lam])


def test_noisy_chsh_matches_closed_form():
    cfs = [contextual_fraction(noisy_one_odd_lift(2, F(k, 16))) for k in range(17)]
    assert cfs == [chsh_noisy_cf(F(k, 16)) for k in range(17)]


#: CF of noisy one-odd-context lifts that are cheap only on flip orbits; the
#: full LP took about a minute on bell-4-2 and more than 9 minutes on bell-5-2.
NOISY_LIFT_CF = {
    4: ((F(1, 8), F(45, 56)), (F(1, 4), F(17, 28)), (F(1, 2), F(3, 14))),
    5: ((F(1, 2), F(7, 30)),),
}


@pytest.mark.parametrize(
    "n_parties, lam, expected",
    [(n, lam, cf) for n, points in NOISY_LIFT_CF.items() for lam, cf in points],
)
def test_noisy_parity_lift_cf_is_fast(n_parties, lam, expected):
    model = noisy_one_odd_lift(n_parties, lam)
    start = time.perf_counter()
    cf = contextual_fraction(model)
    assert cf == expected
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("n_parties", sorted(NOISY_LIFT_CF))
def test_noisy_parity_lift_cf_does_not_increase_with_noise(n_parties):
    lams = [F(0)] + [lam for lam, _ in NOISY_LIFT_CF[n_parties]] + [F(1)]
    models = [noisy_one_odd_lift(n_parties, lam) for lam in lams]
    start = time.perf_counter()
    cfs = [contextual_fraction(model) for model in models]
    assert time.perf_counter() - start < 5
    assert cfs[0] == 1 and cfs[-1] == 0
    assert all(a >= b for a, b in zip(cfs, cfs[1:]))


# --- the quotient certificate of the lifted CF optimum ---------------------------
#
# The bell-3-2 one-odd-context lift at noise 1/2 has CF 1/6 and a flip group
# of order 4, so its orbit LP has 16 columns, 16 rows and distinct entries.


def _members(group):
    return [h for h in range(group.bit_length()) if (group >> h) & 1]


def test_quotient_certificate_refuses_a_flip_that_does_not_fix_the_model():
    model = noisy_one_odd_lift(3, H)
    group, _, _ = lift_inputs(model)
    assert _members(group) == [0, 15, 51, 60]
    wider = group | sum(1 << (h ^ 1) for h in _members(group))
    with mock.patch.object(analysis, "_flip_group", lambda s, stabilizers: wider):
        with pytest.raises(InternalConsistencyError,
                           match="certificate: a generator does not fix the model"):
            contextual_fraction(model)


def test_quotient_certificate_refuses_a_model_row_a_generator_does_not_fix():
    model = noisy_one_odd_lift(3, H)
    _, quotient, lift = lift_inputs(model)
    tilted = mix([model, deterministic_model(S32, (0,) * 6)], [F(63, 64), F(1, 64)])
    with pytest.raises(InternalConsistencyError, match="does not fix the model"):
        analysis._certify_lift(tilted, quotient, *lifted(quotient, lift))


def test_flip_bitmask_not_closed_under_xor_is_an_internal_fault():
    # One flip outside H added to its bitmask: the LP is solved on the closure,
    # and the certificate refuses the closure's generators, an internal fault
    # rather than a malformed LP row.
    model = noisy_one_odd_lift(3, H)
    group, _, _ = lift_inputs(model)
    with mock.patch.object(analysis, "_flip_group", lambda s, stabilizers: group | 1 << 1):
        with pytest.raises(InternalConsistencyError,
                           match="certificate: a generator does not fix the model"):
            contextual_fraction(model)


def _split_quotient(group, **fields):
    """``_quotient`` with ``fields`` of its orbit LP replaced for the flip group ``group`` only."""
    real = analysis._quotient

    def split(s, g):
        quotient = real(s, g)
        return replace(quotient, lp=replace(quotient.lp, **fields)) if g == group else quotient

    return mock.patch.object(analysis, "_quotient", split)


def test_quotient_certificate_refuses_a_row_orbit_split():
    model = noisy_one_odd_lift(3, H)
    group, quotient, lift = lift_inputs(model)
    row_of = classes_of(quotient.lp.lift_rows, len(quotient.lp.a_le))
    r = row_of.index(0, 1)  # the second row of orbit 0 joins orbit 1
    assert lift.shares[0] != lift.shares[1]
    row_of = row_of[:r] + (1,) + row_of[r + 1:]
    with _split_quotient(group, lift_rows=itemgetter(*row_of)):
        with pytest.raises(InternalConsistencyError,
                           match="certificate: the lifted dual is not invariant"):
            contextual_fraction(model)


def test_quotient_certificate_refuses_a_coset_split():
    model = noisy_one_odd_lift(3, H)
    group, quotient, lift = lift_inputs(model)
    column_of = classes_of(quotient.lp.lift_columns, len(quotient.lp.objective))
    g = column_of.index(0, 1)  # the second member of coset 0 joins coset 1
    assert lift.weights[0] != lift.weights[1]
    column_of = column_of[:g] + (1,) + column_of[g + 1:]
    with _split_quotient(group, lift_columns=itemgetter(*column_of)):
        with pytest.raises(InternalConsistencyError,
                           match="certificate: the lifted primal is not invariant"):
            contextual_fraction(model)


def test_quotient_certificate_refuses_every_wrong_pair():
    model = noisy_one_odd_lift(3, H)
    _, quotient, lift = lift_inputs(model)
    # Every row has a nonzero right-hand side: 16 primal and 16 dual entries
    # moved either way, 15 moves off an empty coset, one dual shift, 16
    # overweight cosets, 8 lowered positive duals, the pair doubled and halved.
    # Each is handed over as the orbit LP's optimum, as maximize returns it.
    wrong = list(wrong_pairs(model, quotient, lift))
    assert len(wrong) == 64 + 15 + 1 + 16 + 8 + 2
    for bad in wrong:
        with mock.patch.object(analysis, "maximize", lambda lp: outcome(quotient, bad)):
            with pytest.raises(InternalConsistencyError, match="certificate"):
                contextual_fraction(model)


SCAN8_VALUES = (F(0), F(1, 16), F(1, 8), F(3, 16))


def _oracle_models():
    yield from (pr_box(0, 0, 0), pr_box(1, 0, 1), ghz_model(), three_way_box(),
                asymmetric_scc_model(), noisy_one_odd_lift(3, H))
    for a, b in itertools.product(SCAN8_VALUES, repeat=2):
        yield eight_param_family([Q, a, b, F(1, 16), F(1, 8), 0, F(3, 16), F(1, 16)])
        yield eight_param_family([Q, 0, a, 0, b, F(1, 8), 0, F(1, 16)])


def test_full_lp_certify_agrees_with_the_quotient_certificate():
    for model in _oracle_models():
        _, quotient, lift = lift_inputs(model)
        assert quotient_accepts(model, quotient, lift)
        assert full_lp_accepts(model, quotient, lift)
        for bad in wrong_pairs(model, quotient, lift):
            assert not quotient_accepts(model, quotient, bad)
            assert not full_lp_accepts(model, quotient, bad)


# --- the integer lift of a refined optimum ---------------------------------------
#
# lp_scale's bell-2-4 one-odd-context lift at noise 3/8 has CF 1/4; its 32 x 128
# orbit LP is solved on its 6 x 20 coarsest equitable partition, whose optimum
# comes back as integers over the solver's den, lifted over d = den times the
# lcm of the row classes' sizes.  Each mutation below changes the solver's
# integers, before the lift, and the quotient certificate refuses each with a
# message of its own.


def _bumped(entries, k, step):
    entries = list(entries)
    entries[k] += step
    return tuple(entries)


REFINED_MUTATIONS = {
    "class weight +1": (
        lambda out: replace(out, solution=_bumped(out.solution, 0, 1)), "primal row violated"),
    "class dual -1": (
        lambda out: replace(
            out, dual=_bumped(out.dual, [k for k, q in enumerate(out.dual) if q > 0][0], -1)),
        "the dual objective differs from the optimum"),
    "d doubled": (  # through the solver's den, of which d is a multiple
        lambda out: replace(out, den=2 * out.den), "dual row violated"),
    "value numerator off by one": (
        lambda out: replace(out, value=out.value + 1),
        "the primal objective differs from the optimum"),
}


@pytest.mark.parametrize("name", sorted(REFINED_MUTATIONS))
def test_refined_integer_lift_refuses_each_mutation(name):
    s = bell_scenario(2, 4)
    odd = lift_uniform(parity_to_possibilistic(parity_system(s, (1,) + (0,) * (s.n_contexts - 1))))
    model = mix([odd, uniform_model(s)], [F(5, 8), F(3, 8)])
    assert contextual_fraction(model) == Q
    mutate, message = REFINED_MUTATIONS[name]
    real = analysis.maximize
    shapes = []

    def mutated(lp):
        out = real(lp)
        shapes.append((len(out.solution), len(out.dual)))
        return mutate(out)

    with mock.patch.object(analysis, "maximize", mutated):
        with pytest.raises(InternalConsistencyError, match=f"quotient certificate: {message}"):
            contextual_fraction(model)
        _, quotient, lift = lift_inputs(model)
    assert shapes == [(20, 6), (20, 6)]  # the reduced LP's class weights and class duals
    assert not quotient_accepts(model, quotient, lift)
    assert not full_lp_accepts(model, quotient, lift)
