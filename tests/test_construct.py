import gc
import hashlib
import itertools
import json
import os
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings

from amcc.analysis import classify, contextual_fraction, is_strongly_contextual
from amcc.catalog import ghz_model, pr_box
from amcc import construct
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
from amcc.empirical import (
    PossibilisticModel,
    SignalingWitness,
    deterministic_model,
    lift_uniform,
    make_model,
    possibilistic_collapse,
)
from amcc.errors import (
    IndexOutOfRange,
    InternalConsistencyError,
    LengthMismatch,
    MalformedInput,
    OutOfRange,
    ScenarioMismatch,
    ShapeMismatch,
    TooLarge,
    TooManyCandidates,
)
from amcc.scenario import (
    bell_scenario, make_scenario, parity_mask, parse_bell_token, section_index,
)

from _generators import (
    cycle_scenario,
    flipped_tables,
    fraction_rows,
    parity_lift,
    support_patterns,
)
from _oracles import (
    bell_n2_amcc_closed_form,
    bell_n2_amcc_count,
    bell_n2_consistent_bruteforce,
    bell_n2_consistent_by_rank,
    gf2_rank,
    parity_orbits_bruteforce,
    support_signaling_bruteforce,
)

F = Fraction
H = F(1, 2)
Q = F(1, 4)
S22 = bell_scenario(2, 2)
S32 = bell_scenario(3, 2)

PR_PARITIES = (0, 0, 0, 1)
EXAMPLE_PARITIES_32 = (0, 1, 1, 1, 1, 1, 1, 1)


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


@pytest.mark.parametrize("bit", [1.9, True, 1.0, "1"])
def test_parity_system_refuses_a_parity_that_is_not_an_int_bit(bit):
    # int(b) used to read 1.9 as parity 1 without a word.
    with pytest.raises(LengthMismatch, match="parities must be bits"):
        parity_system(S22, [bit, 0, 0, 0])
    with pytest.raises(LengthMismatch, match="parities must be bits"):
        parity_preset_from_dict({"scenario": "bell-2-2-2", "parities": [bit, 0, 0, 0]})


def test_parity_consistent_refuses_a_short_parity_vector():
    # One parity for four contexts used to get an inconsistency certificate
    # naming all four equations.
    with pytest.raises(LengthMismatch, match="1 parity bits for 4 contexts"):
        parity_consistent(construct.ParitySystem(S22, (1,)))


def test_parity_to_possibilistic_refuses_a_parity_that_is_not_a_bit():
    # Parity 2 used to give context 0 an empty support.
    with pytest.raises(LengthMismatch, match="parities must be bits"):
        parity_to_possibilistic(construct.ParitySystem(S22, (2, 0, 0, 0)))


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
    assert poss.masks == possibilistic_collapse(pr_box(0, 0, 0)).masks
    # The (3,2,2) system with only the last parity odd: even halves
    # (sections 000, 011, 101, 110) everywhere except context 7.
    poss32 = parity_to_possibilistic(parity_system(S32, (0, 0, 0, 0, 0, 0, 0, 1)))
    even = (1 << 0b000) | (1 << 0b011) | (1 << 0b101) | (1 << 0b110)
    odd = 0b11111111 ^ even
    assert poss32.masks == (even,) * 7 + (odd,)


def test_parity_single_observable_context_gives_singleton_support():
    s = make_scenario(["A", "B"], [["A"], ["B"]])
    poss = parity_to_possibilistic(parity_system(s, (0, 1)))
    assert poss.masks == (0b01, 0b10)


def test_boolean_no_signaling_parity_models():
    for bits in itertools.product((0, 1), repeat=4):
        poss = parity_to_possibilistic(parity_system(S22, bits))
        assert boolean_no_signaling(poss) == (True, None)


def test_boolean_no_signaling_counterexample():
    masks = (
        0b0001,   # {X1,X2}: only (0,0)
        0b1100,   # {X1,X2p}: only (1,0),(1,1)
        0b1111,
        0b1111,
    )
    ok, witness = boolean_no_signaling(PossibilisticModel(S22, masks))
    assert not ok
    assert isinstance(witness, SignalingWitness)
    assert (witness.context_a, witness.context_b) == (0, 1)
    assert witness.overlap == ("X1",)
    assert witness.marginal_a == (1, 0)
    assert witness.marginal_b == (0, 1)
    assert witness.describe() == "contexts 0 and 1 disagree on ('X1',): ('1', '0') vs ('0', '1')"


@settings(max_examples=300, deadline=None)
@given(support_patterns())
def test_boolean_no_signaling_matches_the_brute_force(pattern):
    s = pattern.scenario
    supports = [
        tuple((mask >> sec) & 1 for sec in range(1 << len(ctx)))
        for ctx, mask in zip(s.contexts, pattern.masks)
    ]
    found = support_signaling_bruteforce(s.observables, s.contexts, supports)
    expected = (True, None) if found is None else (False, SignalingWitness(*found))
    ok, witness = boolean_no_signaling(pattern)
    assert (ok, witness) == expected
    if witness is not None:  # 0/1 ints, not bools
        assert {type(x) for x in witness.marginal_a + witness.marginal_b} == {int}


def test_boolean_no_signaling_refuses_masks_that_do_not_fit_the_contexts():
    # One mask used to escape as a bare IndexError, and bit 4 of 0x1F was
    # projected away, so the pattern passed.
    with pytest.raises(ShapeMismatch, match="1 support masks for 4 contexts"):
        boolean_no_signaling(PossibilisticModel(S22, (0xF,)))
    with pytest.raises(ShapeMismatch, match="context 0 has a bit past section 3"):
        boolean_no_signaling(PossibilisticModel(S22, (0x1F, 0xF, 0xF, 0xF)))


def test_csp_satisfiable_verdicts():
    # CSP satisfiability is the negation of strong contextuality.
    pr = parity_to_possibilistic(parity_system(S22, PR_PARITIES))
    assert is_strongly_contextual(pr) == (True, None)
    all_true = PossibilisticModel(S22, (0b1111,) * 4)
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
        fraction_rows(lift_uniform(parity_to_possibilistic(parity_system(S22, v.parities))))
        for v in report.verdicts
        if not v.consistent
    }
    boxes = {
        fraction_rows(pr_box(a, b, g)) for a, b, g in itertools.product((0, 1), repeat=3)
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


def shuffled_bell_32(seed):
    """bell-3-2 with its observables and contexts shuffled, as the benchmark builds it."""
    base = bell_scenario(3, 2)
    observables, contexts = list(base.observables), list(base.contexts)
    rng = random.Random(seed)
    rng.shuffle(observables)
    rng.shuffle(contexts)
    return make_scenario(observables, contexts)


# On this shuffle, unlike the unshuffled order, reading context c as index
# bit c instead of bit m - 1 - c changes 24 consistency verdicts.
PARITY_COVERS = {"bell-2-2": S22, "bell-3-2-shuffled": shuffled_bell_32(1), "cycle-5": cycle_scenario(5)}


@pytest.mark.parametrize("name", sorted(PARITY_COVERS))
def test_enumerate_parity_verdicts_match_each_vectors_own_lift(name):
    s = PARITY_COVERS[name]
    own = {}
    for bits in itertools.product((0, 1), repeat=s.n_contexts):
        report = classify(parity_lift(s, bits))
        consistent = not report.strongly_contextual
        own[bits] = (consistent, None, None) if consistent else (False, report.cf, report.amcc)

    for i, v in enumerate(enumerate_parity(s).verdicts):
        assert section_index(v.parities) == i
        assert (v.consistent, v.cf, v.amcc) == own[v.parities]


def test_coset_representative_lift_relabels_onto_every_member():
    verdicts = enumerate_parity(S32).verdicts
    by_bits = {v.parities: v for v in verdicts}
    reps = []  # first vector of each coset of the flip image, in enumeration order
    for v in verdicts:
        if v.consistent:
            continue
        p = v.parities
        for r in reps:
            ok, flip = parity_consistent(parity_system(S32, tuple(a ^ b for a, b in zip(p, r))))
            if ok:
                break
        else:
            reps.append(p)
            r, flip = p, (0,) * len(S32.observables)
        # Flipping the outcomes of the observables in ``flip`` maps r's lift onto p's.
        h = section_index(flip)
        assert flipped_tables(parity_lift(S32, r), h) == fraction_rows(parity_lift(S32, p))
        assert (by_bits[r].cf, by_bits[r].amcc) == (v.cf, v.amcc)
    assert len(reps) == (1 << (8 - 4)) - 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bell_n2_amcc_count_oracle_matches_closed_form(n):
    assert bell_n2_amcc_count(n) == bell_n2_amcc_closed_form(n)
    if n <= 3:
        assert bell_n2_consistent_bruteforce(n) == bell_n2_consistent_by_rank(n)


@pytest.mark.parametrize("n", [2, 3])
def test_enumerate_parity_amcc_count_matches_oracle(n):
    report = enumerate_parity(bell_scenario(n, 2))
    assert report.amcc_count == bell_n2_amcc_count(n)
    assert report.consistent_count == bell_n2_consistent_bruteforce(n)


def test_csp_preset_counts_and_eq41_membership():
    base, extendable = csp_extension_preset("eq40")
    assert extendable == (1, 2, 4, 7)
    report = csp_enumerate_extension(base, extendable)
    assert report.candidates == 65536
    assert report.passing_count == 2401
    masks = list(base.masks)
    for c in extendable:
        masks[c] |= (1 << 4) | (1 << 7)
    assert any(cand.support_masks == tuple(masks) for cand in report.passing)


def eq41_masks():
    """The documented passing extension: sections (1,0,0) and (1,1,1) added
    to every extendable context of the shipped base pattern."""
    base, extendable = csp_extension_preset("eq40")
    masks = list(base.masks)
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
    assert possibilistic_collapse(interior).masks == candidate_model(s, masks).masks


def test_csp_passing_candidates_actually_pass():
    base, extendable = csp_extension_preset("eq40")
    report = csp_enumerate_extension(base, extendable)
    sample = report.passing[:: max(1, len(report.passing) // 50)]
    for cand in sample:
        model = candidate_model(base.scenario, cand.support_masks)
        assert boolean_no_signaling(model)[0]
        assert is_strongly_contextual(model)[0]


@pytest.mark.parametrize("indices", [[1.9, 2, 4, 7], [True, 2, 4, 7], ["1", 2, 4, 7]])
def test_csp_refuses_a_context_index_that_is_not_an_int(indices):
    # int(c) used to scan context 1 for 1.9 and True without a word.
    base, _ = csp_extension_preset("eq40")
    with pytest.raises(MalformedInput, match="context index must be an int"):
        csp_enumerate_extension(base, indices)


def test_csp_context_index_is_checked_by_the_scenario():
    # str() refuses 10**5000 past 4 300 digits; this used to raise ValueError.
    base, _ = csp_extension_preset("eq40")
    for indices in ([10**5000], [1, -10**5000]):
        with pytest.raises(IndexOutOfRange, match="context index of 16610 bits not in 0..7"):
            csp_enumerate_extension(base, indices)
    with pytest.raises(IndexOutOfRange, match="context index 8 not in 0..7"):
        csp_enumerate_extension(base, [1, 8])


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
    # bell-3-2 has 4 orbit representatives, more than the 3 CPUs.
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    pr = parity_to_possibilistic(parity_system(S22, PR_PARITIES))
    sequential = enumerate_parity(S32, jobs=1)
    for jobs in (2, 100):
        assert enumerate_parity(S32, jobs=jobs) == sequential
    csp_enumerate_extension(pr, (), jobs=100)  # one candidate: one chunk, no pool
    assert pool_requests == [2, 3]


def test_each_coset_is_classified_once_across_workers(pool_requests, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    calls = []

    def counting_classify(model):
        calls.append(model)
        return classify(model)

    monkeypatch.setattr(construct.analysis, "classify", counting_classify)
    # The 15 cosets of the flip image fall into 4 orbits under the cover's
    # automorphisms; the least vector of each is classified.
    orbits = parity_orbits_bruteforce(S32.observables, S32.contexts)
    least = [parity_lift(S32, orbit[0]) for orbit in orbits]
    sequential = enumerate_parity(S32, jobs=1)
    for jobs in (1, 2, 3):
        calls.clear()
        assert enumerate_parity(S32, jobs=jobs) == sequential
        assert calls == least
    assert pool_requests == [2, 3]


@pytest.mark.parametrize("token, count", [("bell-3-2-2", 4), ("bell-2-3-2", 2), ("bell-4-2-2", 38)])
def test_one_lift_is_classified_per_relabelling_orbit(monkeypatch, token, count):
    calls = []

    def counting_classify(model):
        calls.append(model)
        return classify(model)

    monkeypatch.setattr(construct.analysis, "classify", counting_classify)
    s = parse_bell_token(token)
    report = enumerate_parity(s)
    assert len(calls) == count
    if s.n_contexts <= 9:  # the oracle walks every parity vector
        orbits = parity_orbits_bruteforce(s.observables, s.contexts)
        assert calls == [parity_lift(s, orbit[0]) for orbit in orbits]
    else:
        assert report.to_dict() == {"total": 65536, "consistent": 32, "amcc": 65504}


def test_cover_symmetries_are_not_sought_for_a_single_coset(monkeypatch):
    # bell-2-2 has one nonzero syndrome: there is nothing to join.
    def no_search(s):
        raise AssertionError("cover_automorphisms was called")

    monkeypatch.setattr(construct, "cover_automorphisms", no_search)
    assert enumerate_parity(S22).amcc_count == 8


def test_jobs_below_one_is_refused():
    for jobs in (0, -3):
        with pytest.raises(ValueError):
            enumerate_parity(S22, jobs=jobs)
        with pytest.raises(ValueError):
            csp_enumerate_extension(csp_extension_preset("eq40")[0], (1,), jobs=jobs)


@pytest.mark.parametrize("jobs", ["2", True, False, 2.5, 1.0, None, Fraction(2)])
def test_jobs_must_be_an_int_before_any_work(pool_requests, monkeypatch, jobs):
    def no_work(*args):
        raise AssertionError("work started before jobs was checked")

    monkeypatch.setattr(construct, "_gf2_basis", no_work)
    monkeypatch.setattr(construct, "_CspSearch", no_work)
    base = csp_extension_preset("eq40")[0]
    with pytest.raises(MalformedInput, match=re.escape(f"an int of at least 1, got {jobs!r}")):
        enumerate_parity(S22, jobs=jobs)
    with pytest.raises(MalformedInput, match="jobs must be an int"):
        csp_enumerate_extension(base, (1,), jobs=jobs)
    with pytest.raises(MalformedInput, match="jobs must be an int"):
        csp_enumerate_extension(base, (99,), jobs=jobs)  # before the context check
    assert pool_requests == []


def naive_csp_passing(base, extendable):
    """Passing (index, masks) by the documented order, checked pattern by pattern."""
    s = base.scenario
    masks = list(base.masks)
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


def test_csp_scan_leaves_no_garbage_cycles():
    base, extendable = csp_extension_preset("eq40")
    csp_enumerate_extension(base, extendable)  # warm the scenario caches
    gc.collect()
    gc.disable()
    try:
        assert csp_enumerate_extension(base, extendable).passing_count == 2401
        assert gc.collect() == 0
    finally:
        gc.enable()


def _random_csp_base(rng, s):
    """Random nonempty context masks, mostly parity halves or full, with at most 12 absent
    sections over the extendable contexts (so at most 2**12 candidates)."""
    width = len(s.contexts[0])
    full = (1 << s.n_sections(0)) - 1
    masks = []
    for _ in range(s.n_contexts):
        r = rng.random()
        if r < 0.75:
            masks.append(parity_mask(width, rng.randrange(2)))
        elif r < 0.9:
            masks.append(full)
        else:
            masks.append(rng.randint(1, full))
    budget = rng.randint(0, 12)
    extendable = []
    for c in rng.sample(range(s.n_contexts), s.n_contexts):
        if s.n_sections(c) - masks[c].bit_count() <= budget:
            budget -= s.n_sections(c) - masks[c].bit_count()
            extendable.append(c)
    return candidate_model(s, masks), tuple(sorted(extendable))


def _csp_cases():
    rng = random.Random(1980)
    for s in (S22, S32):
        for _ in range(30):
            yield _random_csp_base(rng, s)
    # X1 is 0 in context 0 and 1 in context 1: a fixed pair that signals.
    yield candidate_model(S22, (0b0001, 0b0100, 0b0001, 0b0001)), (2, 3)
    # Context 1 already has X1 = 1, which fixed context 0 lacks: no choice of
    # context 1 survives.
    yield candidate_model(S22, (0b0001, 0b0101, 0b0001, 0b1111)), (1, 2)


def test_csp_search_matches_naive_scan_on_random_index_ranges():
    rng = random.Random(14)
    cases = list(_csp_cases())
    nonempty = 0
    for n, (base, extendable) in enumerate(cases):
        search = construct._CspSearch(base, extendable)
        naive = naive_csp_passing(base, extendable)
        nonempty += bool(naive)
        bounds = [(0, search.total)] + [
            sorted(rng.randint(0, search.total) for _ in range(2)) for _ in range(4)
        ]
        for a, b in bounds:
            passing = search.scan(range(a, b))
            expected = [(i, masks) for i, masks in naive if a <= i < b]
            assert [(c.index, c.support_masks) for c in passing] == expected
            if n >= len(cases) - 2:  # the signaling fixed pair and the emptied context
                assert passing == []
    assert nonempty >= 10


def test_csp_guard_on_candidate_explosion():
    s = S32
    masks = [1] * 8  # single supported section everywhere: 7 absent per context
    base = candidate_model(s, masks)
    with pytest.raises(TooManyCandidates):
        csp_enumerate_extension(base, (0, 1, 2, 3, 4))


def _one_context_cover(n):
    labels = [f"Y{i}" for i in range(n)]
    return candidate_model(make_scenario(labels, [labels]), [1])


def test_csp_guard_counts_absent_sections_before_listing_them():
    # One context of 16 observables with one supported section: 2**16 - 1 absent.
    message = r"^2\*\*65535 candidates exceed the 2\*\*24 guard$"
    with pytest.raises(TooManyCandidates, match=message):
        csp_enumerate_extension(_one_context_cover(16), (0,))
    base = _one_context_cover(20)
    tracemalloc.start()
    try:
        with pytest.raises(TooManyCandidates):
            csp_enumerate_extension(base, (0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_csp_refuses_malformed_extendable_contexts():
    base, _ = csp_extension_preset("eq40")
    for c in (8, -1):
        with pytest.raises(IndexOutOfRange):
            csp_enumerate_extension(base, (c,))
    # A mask bit past the context's 8 sections would shrink the absent count.
    with pytest.raises(ShapeMismatch, match="past section 7"):
        wide = PossibilisticModel(base.scenario, (base.masks[0] | 1 << 8,) + base.masks[1:])
        csp_enumerate_extension(wide, (0,))


def test_candidate_model_refuses_masks_that_do_not_fit_the_contexts():
    s = bell_scenario(2, 2)
    for masks in ([1], [1] * 6):
        with pytest.raises(ShapeMismatch, match=f"{len(masks)} support masks for 4 contexts"):
            candidate_model(s, masks)
    with pytest.raises(ShapeMismatch, match="context 2 has a bit past section 3"):
        candidate_model(s, [0xF, 0xF, 0x1F, 0xF])
    with pytest.raises(ShapeMismatch, match="past section 3"):
        candidate_model(s, [0xF, -1, 0xF, 0xF])


def test_csp_search_refuses_masks_that_do_not_fit_the_contexts():
    s = bell_scenario(2, 2)
    # One mask for four contexts used to escape as a bare IndexError.
    for masks in ((1,), (1,) * 6):
        with pytest.raises(ShapeMismatch, match="support masks for 4 contexts"):
            csp_enumerate_extension(PossibilisticModel(s, masks), (0,))
    # A fixed context's bit past its last section used to be ignored silently.
    with pytest.raises(ShapeMismatch, match="context 0 has a bit past section 3"):
        wide_fixed = PossibilisticModel(s, (0x1F, 0xF, 0xF, 0xF))
        csp_enumerate_extension(wide_fixed, (1,))


def test_eight_param_row_structure():
    rows = fraction_rows(eight_param_family([Q, 0, 0, 0, 0, 0, 0, 0]))
    assert rows[0] == (Q, 0, 0, Q, 0, Q, Q, 0)
    assert rows[1] == (0, Q, Q, 0, Q, 0, 0, Q)


def test_eight_param_matches_parity_lift():
    lift = lift_uniform(parity_to_possibilistic(parity_system(S32, EXAMPLE_PARITIES_32)))
    assert fraction_rows(eight_param_family([Q, 0, 0, 0, 0, 0, 0, 0])) == fraction_rows(lift)


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
    assert all(entry == F(1, 8) for row in fraction_rows(model) for entry in row)


def test_twentysix_param_reproduces_ghz():
    ghz = ghz_model()
    params = twentysix_params_from_model(ghz)
    assert fraction_rows(twentysix_param_family(params)) == fraction_rows(ghz)


def test_twentysix_param_out_of_range_and_length():
    params = [F(1, 8)] * 26
    params[0] = F(1)  # row sums push other entries negative
    with pytest.raises(OutOfRange):
        twentysix_param_family(params)
    with pytest.raises(LengthMismatch):
        twentysix_param_family([Q] * 25)


def test_twentysix_params_refuse_a_pr_box():
    # Used to escape as a bare IndexError.
    with pytest.raises(ScenarioMismatch):
        twentysix_params_from_model(pr_box(0, 0, 0))


def test_twentysix_params_refuse_reordered_contexts():
    # The same (3,2,2) cover with its contexts reversed used to yield
    # parameters whose family model differed from the input.
    ghz = ghz_model()
    s = ghz.scenario
    reversed_ghz = make_model(
        make_scenario(s.observables, s.contexts[::-1]), ghz.numerators[::-1], ghz.den
    )
    with pytest.raises(ScenarioMismatch):
        twentysix_params_from_model(reversed_ghz)


def test_twentysix_table_cells_follow_from_the_parameters_in_38_steps():
    steps = construct._table_26_steps()
    assert len(steps) == 38
    solved = {cell for cell, *_ in steps}
    placed = {8 * row + col for row, col in construct.PARAM_CELLS_26.values()}
    assert len(solved) == 38 and solved.isdisjoint(placed) and len(placed) == 26


def test_twentysix_table_with_an_undetermined_cell_is_an_internal_error(monkeypatch):
    # Parameter 26 moved onto parameter 25's cell leaves one cell that no
    # chain of equations reaches: the solver stops instead of looping.
    cells = {**construct.PARAM_CELLS_26, 26: construct.PARAM_CELLS_26[25]}
    monkeypatch.setattr(construct, "PARAM_CELLS_26", cells)
    construct._table_26_steps.cache_clear()
    try:
        with pytest.raises(InternalConsistencyError, match="follow from no equation"):
            construct._table_26_steps()
    finally:
        construct._table_26_steps.cache_clear()


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


def test_families_refuse_float_parameters():
    with pytest.raises(MalformedInput):
        eight_param_family([0.25] + [0] * 7)
    with pytest.raises(MalformedInput):
        eight_param_family([Q] + [0.1] * 7)
    amcc_point = eight_param_family([Q] + [0] * 7)
    assert eight_param_family(["1/4"] + [F(0)] * 7) == amcc_point
    with pytest.raises(MalformedInput):
        three_param_family(0.25, 0, Q)
    assert three_param_family("1/4", 0, Q) == three_param_family(Q, F(0), Q)
    with pytest.raises(MalformedInput):
        twentysix_param_family([0.125] + [F(1, 8)] * 25)
    uniform = twentysix_param_family([F(1, 8)] * 26)
    assert twentysix_param_family(["1/8"] + [F(1, 8)] * 25) == uniform
    assert twentysix_param_family([0] * 26) == deterministic_model(S32, (1,) * 6)


def test_scans_refuse_float_values_before_evaluating():
    rest = {k: F(0) for k in range(2, 9)}
    with pytest.raises(MalformedInput):
        scan_eight_param([0.25], fixed=rest)
    with pytest.raises(MalformedInput):
        scan_eight_param([Q], fixed={**rest, 8: 0.0})
    expected = scan_eight_param([Q], fixed=rest).points
    assert scan_eight_param(["1/4"], fixed={**rest, 8: 0}).points == expected
    with pytest.raises(MalformedInput):
        scan_eight_param_pairs([0, 0.25])
    assert len(scan_eight_param_pairs([0, "1/4"]).points) == 112


@pytest.mark.parametrize("key", [1.9, True, 1.0, "١", " 1", "+1", "1/1", None,
                                 pytest.param("1" * 5000, id="5000-digits")])
def test_scan_refuses_a_parameter_index_that_is_not_an_int_or_ascii_digits(key):
    # int(k) used to truncate 1.9 and True onto p1 without a word.
    with pytest.raises(MalformedInput, match="parameter index must be an int"):
        scan_eight_param([F(0)], fixed={key: Q})


@pytest.mark.parametrize("key", [10**5000, -10**5000], ids=["huge", "huge-negative"])
def test_scan_refuses_a_huge_parameter_index_as_out_of_range(key):
    # str() refuses more than 4 300 digits: the message used to raise a bare ValueError.
    with pytest.raises(IndexOutOfRange, match="parameter index of 16610 bits not in 1..8"):
        scan_eight_param(["0"], fixed={key: 0})


def test_scan_reads_decimal_string_indices_and_refuses_repeats():
    rest = {k: F(0) for k in range(3, 9)}
    expected = scan_eight_param([F(0)], fixed={1: Q, 2: F(1, 8), **rest}).points
    assert scan_eight_param([F(0)], fixed={"1": Q, "02": F(1, 8), **rest}).points == expected
    with pytest.raises(MalformedInput, match="parameter 1 is pinned more than once"):
        scan_eight_param([F(0)], fixed={1: Q, "1": F(0)})
    with pytest.raises(IndexOutOfRange, match="parameter index 9 not in 1..8"):
        scan_eight_param([F(0)], fixed={"9": Q})


def test_parity_preset_roundtrip(tmp_path):
    ps = parity_system(S32, EXAMPLE_PARITIES_32)
    payload = parity_preset_to_dict(ps)
    assert payload == {"scenario": "bell-3-2-2", "parities": list(EXAMPLE_PARITIES_32)}
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(payload))
    loaded = parity_preset_from_dict(json.loads(path.read_text()))
    assert loaded == ps


def test_parity_preset_names_a_missing_field():
    with pytest.raises(MalformedInput, match="missing field 'parities'"):
        parity_preset_from_dict({"scenario": "bell-2-2-2"})


def test_parity_preset_general_cover_roundtrip():
    s = make_scenario(["A", "B", "C"], [["A", "B"], ["B", "C"], ["A", "C"]])
    ps = parity_system(s, (1, 0, 0))
    payload = parity_preset_to_dict(ps)
    assert isinstance(payload["scenario"], dict)
    assert parity_preset_from_dict(payload) == ps
