import hashlib
import itertools
import json
import os
from fractions import Fraction

import pytest

from amcc.analysis import classify, contextual_fraction, is_strongly_contextual
from amcc.catalog import ghz_model, pr_box
from amcc.construct import (
    candidate_model,
    boolean_no_signaling,
    csp_enumerate_extension,
    csp_extension_preset,
    eight_param_family,
    enumerate_parity,
    parity_consistent,
    parity_preset_from_dict,
    parity_preset_to_dict,
    parity_system,
    parity_to_possibilistic,
    scan_eight_param,
    scan_eight_param_pairs,
    three_param_family,
    twentysix_param_family,
    twentysix_params_from_model,
)
from amcc.empirical import PossibilisticModel, lift_uniform, possibilistic_collapse
from amcc.errors import LengthMismatch, OutOfRange, TooLarge, TooManyCandidates
from amcc.scenario import bell_scenario, make_scenario

F = Fraction
H = F(1, 2)
Q = F(1, 4)
S22 = bell_scenario(2, 2)
S32 = bell_scenario(3, 2)

PR_PARITIES = (0, 0, 0, 1)
EXAMPLE_PARITIES_32 = (0, 1, 1, 1, 1, 1, 1, 1)


def gf2_rank(masks):
    """Independent GF(2) rank via bit-level elimination."""
    rank = 0
    rows = list(masks)
    for bit in range(max(m.bit_length() for m in rows)):
        pivot = next((r for r in rows if (r >> bit) & 1), None)
        if pivot is None:
            continue
        rows = [r ^ pivot if (r >> bit) & 1 else r for r in rows if r != pivot]
        rank += 1
    return rank


def context_masks(s):
    ps = parity_system(s, (0,) * s.n_contexts)
    return [ps.coefficient_mask(c) for c in range(s.n_contexts)]


def test_parity_system_validation():
    ps = parity_system(S22, PR_PARITIES)
    assert ps.parities == PR_PARITIES
    with pytest.raises(LengthMismatch):
        parity_system(S22, (0, 0, 0))
    with pytest.raises(LengthMismatch):
        parity_system(S22, (0, 0, 0, 2))


def test_parity_consistent_pr_certificate_is_all_equations():
    ok, certificate = parity_consistent(parity_system(S22, PR_PARITIES))
    assert not ok
    assert certificate == (0, 1, 2, 3)


def test_parity_certificate_sums_to_contradiction():
    ps = parity_system(S32, EXAMPLE_PARITIES_32)
    ok, certificate = parity_consistent(ps)
    assert not ok
    acc_mask = 0
    acc_parity = 0
    for idx in certificate:
        acc_mask ^= ps.coefficient_mask(idx)
        acc_parity ^= ps.parities[idx]
    assert acc_mask == 0 and acc_parity == 1


def test_parity_consistent_homogeneous():
    ok, solution = parity_consistent(parity_system(S32, (0,) * 8))
    assert ok and solution == (0,) * 6


def test_parity_consistent_solution_satisfies_equations():
    ps = parity_system(S32, (1, 1, 1, 1, 1, 1, 1, 1))
    ok, solution = parity_consistent(ps)
    assert ok
    for c in range(8):
        total = sum(
            solution[ps.scenario.observables.index(x)]
            for x in ps.scenario.contexts[c]
        )
        assert total % 2 == ps.parities[c]


def test_222_consistency_is_even_parity_sum():
    for bits in itertools.product((0, 1), repeat=4):
        ok, _ = parity_consistent(parity_system(S22, bits))
        assert ok == (sum(bits) % 2 == 0)


def test_parity_to_possibilistic_patterns():
    poss = parity_to_possibilistic(parity_system(S22, PR_PARITIES))
    assert poss.supports == possibilistic_collapse(pr_box(0, 0, 0)).supports
    # The (3,2,2) system with only the last parity odd: even halves
    # everywhere except context 7.
    poss32 = parity_to_possibilistic(parity_system(S32, (0, 0, 0, 0, 0, 0, 0, 1)))
    even = tuple(bin(sec).count("1") % 2 == 0 for sec in range(8))
    odd = tuple(not b for b in even)
    assert poss32.supports == (even,) * 7 + (odd,)


def test_parity_single_observable_context_gives_singleton_support():
    s = make_scenario(["A", "B"], [["A"], ["B"]])
    poss = parity_to_possibilistic(parity_system(s, (0, 1)))
    assert poss.supports == ((True, False), (False, True))


def test_boolean_no_signaling_parity_models():
    for bits in itertools.product((0, 1), repeat=4):
        poss = parity_to_possibilistic(parity_system(S22, bits))
        assert boolean_no_signaling(poss) == (True, None)


def test_boolean_no_signaling_counterexample():
    supports = (
        (True, False, False, False),   # {X1,X2}: only (0,0)
        (False, False, True, True),    # {X1,X2p}: only (1,0),(1,1)
        (True, True, True, True),
        (True, True, True, True),
    )
    ok, witness = boolean_no_signaling(PossibilisticModel(S22, supports))
    assert not ok
    assert witness.overlap == ("X1",)
    assert witness.projection_a == (0,)
    assert witness.projection_b == (1,)


def test_csp_satisfiable_verdicts():
    # CSP satisfiability is the negation of strong contextuality.
    pr = parity_to_possibilistic(parity_system(S22, PR_PARITIES))
    assert is_strongly_contextual(pr) == (True, None)
    all_true = PossibilisticModel(S22, ((True,) * 4,) * 4)
    assert is_strongly_contextual(all_true) == (False, (0, 0, 0, 0))


def test_parity_csp_equivalence_exhaustive_222():
    for bits in itertools.product((0, 1), repeat=4):
        ps = parity_system(S22, bits)
        strong, _ = is_strongly_contextual(parity_to_possibilistic(ps))
        assert (not strong) == parity_consistent(ps)[0]


def test_enumerate_parity_222():
    report = enumerate_parity(S22)
    assert (report.total, report.consistent_count, report.amcc_count) == (16, 8, 8)
    lifted = {
        lift_uniform(parity_to_possibilistic(parity_system(S22, v.parities))).tables
        for v in report.verdicts
        if not v.consistent
    }
    boxes = {
        pr_box(a, b, g).tables for a, b, g in itertools.product((0, 1), repeat=3)
    }
    assert lifted == boxes


def test_enumerate_parity_consistent_count_formula():
    # consistent vectors form the image of the GF(2) coefficient map.
    for s in (S22, S32):
        rank = gf2_rank(context_masks(s))
        consistent = sum(
            1
            for bits in itertools.product((0, 1), repeat=s.n_contexts)
            if parity_consistent(parity_system(s, bits))[0]
        )
        assert consistent == 1 << rank
    assert gf2_rank(context_masks(S22)) == 3
    assert gf2_rank(context_masks(S32)) == 4


def test_enumerate_parity_jobs_invariance():
    sequential = enumerate_parity(S22, jobs=1)
    parallel = enumerate_parity(S22, jobs=2)
    assert sequential == parallel


def test_csp_preset_counts_and_eq41_membership():
    base, extendable = csp_extension_preset("eq40")
    assert extendable == (1, 2, 4, 7)
    report = csp_enumerate_extension(base, extendable)
    assert report.candidates == 65536
    assert report.passing_count == 2401
    masks = [base.support_mask(c) for c in range(8)]
    for c in extendable:
        masks[c] |= (1 << 4) | (1 << 7)
    assert any(cand.support_masks == tuple(masks) for cand in report.passing)


def eq41_masks():
    """The documented passing extension: sections (1,0,0) and (1,1,1) added
    to every extendable context of the shipped base pattern."""
    base, extendable = csp_extension_preset("eq40")
    masks = [base.support_mask(c) for c in range(8)]
    for c in extendable:
        masks[c] |= (1 << 4) | (1 << 7)
    return base.scenario, tuple(masks)


def test_eq41_extension_is_ns_and_unsatisfiable():
    s, masks = eq41_masks()
    model = candidate_model(s, masks)
    assert boolean_no_signaling(model) == (True, None)
    assert is_strongly_contextual(model) == (True, None)
    # Its uniform lift is not probabilistically no-signaling (rows of
    # support size 4 and 6 give 1/4 vs 1/3 marginals): the asymmetry that
    # the three-parameter table resolves with non-uniform weights.
    from amcc.errors import SignalingDetected

    with pytest.raises(SignalingDetected):
        lift_uniform(candidate_model(s, masks))


def test_eq41_collapse_matches_three_param_support():
    s, masks = eq41_masks()
    interior = three_param_family(F(1, 5), F(1, 16), F(1, 8))
    assert possibilistic_collapse(interior).supports == candidate_model(s, masks).supports


def test_csp_passing_candidates_actually_pass():
    base, extendable = csp_extension_preset("eq40")
    report = csp_enumerate_extension(base, extendable)
    sample = report.passing[:: max(1, len(report.passing) // 50)]
    for cand in sample:
        model = candidate_model(base.scenario, cand.support_masks)
        assert boolean_no_signaling(model)[0]
        assert is_strongly_contextual(model)[0]


def test_csp_empty_extension_counts_base_only():
    pr = parity_to_possibilistic(parity_system(S22, PR_PARITIES))
    report = csp_enumerate_extension(pr, ())
    assert report.candidates == 1
    assert report.passing_count == 1  # the PR pattern is NS and unsatisfiable

    base, _ = csp_extension_preset("eq40")
    report = csp_enumerate_extension(base, ())
    assert (report.candidates, report.passing_count) == (1, 0)


def test_csp_jobs_invariance():
    base, _ = csp_extension_preset("eq40")
    one = csp_enumerate_extension(base, (1, 2), jobs=1)
    two = csp_enumerate_extension(base, (1, 2), jobs=2)
    three = csp_enumerate_extension(base, (1, 2), jobs=3)
    assert one == two == three


def test_jobs_capped_at_cpu_count(pool_requests):
    pr = parity_to_possibilistic(parity_system(S22, PR_PARITIES))
    parity = enumerate_parity(S22, jobs=1)
    csp = csp_enumerate_extension(pr, (0, 3), jobs=1)
    assert pool_requests == []  # jobs=1 runs in this process
    assert enumerate_parity(S22, jobs=10**5) == parity
    assert csp_enumerate_extension(pr, (0, 3), jobs=10**5) == csp
    assert all(p <= (os.cpu_count() or 1) for p in pool_requests)


def test_jobs_chunk_count_is_min_of_jobs_cpus_and_work(pool_requests, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    pr = parity_to_possibilistic(parity_system(S22, PR_PARITIES))
    sequential = enumerate_parity(S22, jobs=1)
    for jobs in (3, 100):
        assert enumerate_parity(S22, jobs=jobs) == sequential
    csp_enumerate_extension(pr, (), jobs=100)  # one candidate: one chunk, no pool
    assert pool_requests == [3, 8]


def naive_csp_passing(base, extendable):
    """Passing (index, masks) by the documented order, checked pattern by pattern."""
    s = base.scenario
    masks = [base.support_mask(c) for c in range(s.n_contexts)]
    absent = {
        c: [sec for sec in range(s.n_sections(c)) if not (masks[c] >> sec) & 1]
        for c in extendable
    }
    out = []
    picks = itertools.product(*(range(1 << len(absent[c])) for c in extendable))
    for index, local in enumerate(picks):
        cand = list(masks)
        for c, k in zip(extendable, local):
            for bit, sec in enumerate(absent[c]):
                if (k >> bit) & 1:
                    cand[c] |= 1 << sec
        model = candidate_model(s, cand)
        if boolean_no_signaling(model)[0] and is_strongly_contextual(model)[0]:
            out.append((index, tuple(cand)))
    return out


#: SHA-256 of the eq40 passing list [(index, masks), ...] over (1, 2, 4, 7).
EQ40_PASSING_SHA256 = "1cf7e60b49ab4349004c547f0e29788954bcd770a58bd4117e525c422bf4a959"


def test_csp_passing_lists_independent_of_jobs(pool_requests, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    base, _ = csp_extension_preset("eq40")
    pr = parity_to_possibilistic(parity_system(S22, PR_PARITIES))
    for model, extendable in ((base, (1, 2, 4, 7)), (base, (1, 2)), (base, ()), (pr, (0, 3))):
        runs = [
            [(c.index, c.support_masks) for c in csp_enumerate_extension(model, extendable, jobs=jobs).passing]
            for jobs in (1, 2, 3)
        ]
        assert runs[0] == runs[1] == runs[2]
        if extendable == (1, 2, 4, 7):
            assert len(runs[0]) == 2401
            assert hashlib.sha256(repr(runs[0]).encode()).hexdigest() == EQ40_PASSING_SHA256
        else:
            assert runs[0] == naive_csp_passing(model, extendable)
    assert pool_requests == [2, 3] * 3  # the one-candidate case never pools


def test_csp_guard_on_candidate_explosion():
    s = S32
    masks = [1] * 8  # single supported section everywhere: 7 absent per context
    base = candidate_model(s, masks)
    with pytest.raises(TooManyCandidates):
        csp_enumerate_extension(base, (0, 1, 2, 3, 4), collect=False)


def test_eight_param_row_structure():
    model = eight_param_family([Q, 0, 0, 0, 0, 0, 0, 0])
    assert model.tables[0] == (Q, 0, 0, Q, 0, Q, Q, 0)
    assert model.tables[1] == (0, Q, Q, 0, Q, 0, 0, Q)


def test_eight_param_matches_parity_lift():
    lift = lift_uniform(parity_to_possibilistic(parity_system(S32, EXAMPLE_PARITIES_32)))
    assert eight_param_family([Q, 0, 0, 0, 0, 0, 0, 0]).tables == lift.tables


def test_eight_param_range_check():
    with pytest.raises(OutOfRange):
        eight_param_family([F(1, 3), 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(LengthMismatch):
        eight_param_family([Q] * 7)


def test_eight_param_always_maximal_marginal():
    from amcc.empirical import is_maximal_marginal

    for params in ([F(1, 8)] * 8, [Q, 0, F(1, 16), F(1, 8), 0, Q, F(3, 16), 0]):
        assert is_maximal_marginal(eight_param_family(params))[0]


def test_eight_param_uniform_is_noncontextual():
    assert contextual_fraction(eight_param_family([F(1, 8)] * 8)) == 0


def test_eight_param_p1_quarter_rest_zero_is_maximally_contextual():
    assert contextual_fraction(eight_param_family([Q] + [0] * 7)) == 1


def test_three_param_amcc_point():
    report = classify(three_param_family(Q, 0, Q))
    assert report.amcc


def test_three_param_interior_point():
    report = classify(three_param_family(F(1, 5), 0, F(1, 8)))
    assert report.cf == 1
    assert not report.maximal_marginal


def test_three_param_origin_strongly_contextual_but_asymmetric():
    report = classify(three_param_family(0, 0, 0))
    assert report.cf == 1
    assert report.strongly_contextual
    assert not report.maximal_marginal


def test_three_param_out_of_range():
    with pytest.raises(OutOfRange):
        three_param_family(H, 0, 0)  # entry 1/2 - 2 p1 goes negative


def test_twentysix_param_uniform():
    model = twentysix_param_family([F(1, 8)] * 26)
    assert all(entry == F(1, 8) for row in model.tables for entry in row)


def test_twentysix_param_reproduces_ghz():
    ghz = ghz_model()
    params = twentysix_params_from_model(ghz)
    assert twentysix_param_family(params).tables == ghz.tables


def test_twentysix_param_out_of_range_and_length():
    params = [F(1, 8)] * 26
    params[0] = F(1)  # row sums push other entries negative
    with pytest.raises(OutOfRange):
        twentysix_param_family(params)
    with pytest.raises(LengthMismatch):
        twentysix_param_family([Q] * 25)


def test_scan_eight_param_fixed_point():
    report = scan_eight_param([F(0)], fixed={1: Q})
    assert len(report.points) == 1
    assert report.points[0].cf == 1
    assert report.histogram == ((F(1), 1),)


def test_scan_eight_param_grid_shape():
    report = scan_eight_param([F(0), Q], fixed={k: F(0) for k in range(1, 7)})
    # Two free parameters over a 2-value grid.
    assert len(report.points) == 4
    assert report.points[0].params == (F(0),) * 8


def test_scan_pairs_observed_histogram():
    # Documented behavior of the strict two-value pair scan: CF is 1 when a
    # quarter is placed anywhere (the six zero rows plus an even row stay
    # jointly unsatisfiable) and 1/2 when both rows turn uniform.
    report = scan_eight_param_pairs([F(1, 8), Q])
    assert dict(report.histogram) == {H: 28, F(1): 84}
    assert len(report.points) == 112


def test_scans_refuse_oversized_grids_before_evaluating():
    # The values are not even valid parameters: the guard fires first.
    with pytest.raises(TooLarge, match="65536 scan points"):
        scan_eight_param([F(k) for k in range(4)])
    with pytest.raises(TooLarge, match="17500 scan points"):
        scan_eight_param_pairs([F(k) for k in range(25)])


def test_parity_preset_roundtrip(tmp_path):
    ps = parity_system(S32, EXAMPLE_PARITIES_32)
    payload = parity_preset_to_dict(ps)
    assert payload == {"scenario": "bell-3-2-2", "parities": list(EXAMPLE_PARITIES_32)}
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(payload))
    loaded = parity_preset_from_dict(json.loads(path.read_text()))
    assert loaded == ps


def test_parity_preset_general_cover_roundtrip():
    s = make_scenario(["A", "B", "C"], [["A", "B"], ["B", "C"], ["A", "C"]])
    ps = parity_system(s, (1, 0, 0))
    payload = parity_preset_to_dict(ps)
    assert isinstance(payload["scenario"], dict)
    assert parity_preset_from_dict(payload) == ps
