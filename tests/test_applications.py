import math
from fractions import Fraction

import pytest

from amcc.applications import (
    SECRET_SHARE_ROUND_LIMIT,
    certify_amcc_entropy,
    guessing_probability,
    min_entropy,
    secret_share_simulate,
)
from amcc.catalog import asymmetric_scc_model, ghz_model, pr_box, three_way_box
from amcc.construct import parity_system
from amcc.empirical import deterministic_model, proper_subsets
from amcc.errors import ConsistentResource, NotASubset, RowNotNormalized, TooLarge
from amcc.scenario import bell_scenario

F = Fraction
S22 = bell_scenario(2, 2)
S32 = bell_scenario(3, 2)
GHZ_PARITIES = (0, 1, 1, 1, 1, 1, 1, 1)


def test_guessing_probability_values():
    assert guessing_probability(ghz_model(), 0, ("X1", "X2")) == F(1, 4)
    assert guessing_probability(deterministic_model(S22, (0, 0, 0, 0)), 0, ("X1",)) == 1
    assert guessing_probability(asymmetric_scc_model(), 0, ("X1", "X2")) == F(1, 2)


def test_guessing_probability_rejects_non_subset():
    with pytest.raises(NotASubset):
        guessing_probability(pr_box(0, 0, 0), 0, ("X3",))


def test_min_entropy_report():
    report = min_entropy(ghz_model(), 0, ("X1", "X2"))
    assert report.guess_probability == F(1, 4)
    assert report.min_entropy_bits == 2.0
    assert report.subset_size == 2

    det = min_entropy(deterministic_model(S22, (0, 0, 0, 0)), 0, ("X1",))
    assert det.min_entropy_bits == 0.0

    half = min_entropy(asymmetric_scc_model(), 0, ("X1", "X2"))
    assert half.guess_probability == F(1, 2)
    assert half.min_entropy_bits == 1.0


def test_min_entropy_non_dyadic_value():
    from amcc.empirical import from_global_distribution

    # Three global assignments with distinct (X1, X2) values, weight 1/3
    # each: the (X1, X2) marginal is thirds, guess probability 1/3.
    thirds = {values: F(1, 3) for values in ((0, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0))}
    model = from_global_distribution(S22, thirds)
    report = min_entropy(model, 0, ("X1", "X2"))
    assert report.guess_probability == F(1, 3)
    assert report.min_entropy_bits == pytest.approx(math.log2(3))


def test_min_entropy_equals_subset_size_on_maximal_marginal_models():
    model = three_way_box()
    for c in range(model.scenario.n_contexts):
        for subset in proper_subsets(model.scenario.contexts[c]):
            assert min_entropy(model, c, subset).min_entropy_bits == float(len(subset))


def test_certify_amcc_entropy():
    assert certify_amcc_entropy(ghz_model())
    assert certify_amcc_entropy(pr_box(0, 0, 0))
    assert certify_amcc_entropy(three_way_box())
    assert not certify_amcc_entropy(asymmetric_scc_model())
    assert not certify_amcc_entropy(deterministic_model(S22, (0, 0, 0, 0)))


def test_certify_matches_maximal_marginal_flag():
    from amcc.empirical import is_maximal_marginal

    for model in (ghz_model(), pr_box(1, 1, 0), asymmetric_scc_model(), three_way_box()):
        assert certify_amcc_entropy(model) == is_maximal_marginal(model)[0]


def honest_run(seed, rounds=200):
    ps = parity_system(S32, GHZ_PARITIES)
    return secret_share_simulate(ps, (1, 0, 1, 1, 0, 1, 0, 1), rounds, F(1, 5), seed)


def test_secret_share_honest_never_aborts_and_reconstructs():
    result = honest_run(42, rounds=1000)
    assert not result.aborted
    assert result.reconstructed_bits == result.secret_bits_sent
    assert result.success
    test_rounds = [r for r in result.rounds if r.round_kind == "test"]
    assert test_rounds and all(r.verdict == "accepted" for r in test_rounds)


def test_secret_share_round_invariants():
    result = honest_run(7)
    for r in result.rounds:
        assert r.dealer_key == r.outcomes[-1]
        assert sum(r.outcomes) % 2 == GHZ_PARITIES[r.context]
        assert r.inputs is not None and len(r.inputs) == 3


def test_secret_share_transcript_reproducible():
    assert honest_run(42).transcript() == honest_run(42).transcript()
    assert honest_run(42).transcript() != honest_run(43).transcript()


def test_secret_share_all_inconsistent_222_and_322_systems():
    import itertools

    for s in (S22, S32):
        for bits in itertools.product((0, 1), repeat=s.n_contexts):
            ps = parity_system(s, bits)
            from amcc.construct import parity_consistent

            if parity_consistent(ps)[0]:
                continue
            result = secret_share_simulate(ps, (1, 0), 60, F(1, 4), 5)
            assert not result.aborted
            assert result.success


def test_secret_share_rejects_consistent_resource():
    with pytest.raises(ConsistentResource):
        secret_share_simulate(parity_system(S22, (0, 0, 0, 0)), (1,), 10, F(1, 5), 1)


def test_secret_share_rejects_bad_fraction_and_empty_secret():
    ps = parity_system(S32, GHZ_PARITIES)
    with pytest.raises(RowNotNormalized):
        secret_share_simulate(ps, (1,), 10, F(0), 1)
    with pytest.raises(RowNotNormalized):
        secret_share_simulate(ps, (), 10, F(1, 5), 1)


def test_secret_share_rejects_rounds_outside_the_guard():
    ps = parity_system(S32, GHZ_PARITIES)
    for rounds in (0, -3):
        with pytest.raises(RowNotNormalized):
            secret_share_simulate(ps, (1,), rounds, F(1, 5), 1)
    with pytest.raises(TooLarge):
        secret_share_simulate(ps, (1,), SECRET_SHARE_ROUND_LIMIT + 1, F(1, 5), 1)
    assert len(secret_share_simulate(ps, (1,), 1, F(1, 5), 1).rounds) == 1


def test_secret_share_tampering_aborts_at_first_test_round():
    ps = parity_system(S32, GHZ_PARITIES)
    flip = lambda r, c, outcomes: (outcomes[0] ^ 1,) + outcomes[1:]
    result = secret_share_simulate(ps, (1, 0), 500, F(1, 5), 11, tamper=flip)
    assert result.aborted
    first_test = next(
        i for i, r in enumerate(result.rounds) if r.round_kind == "test"
    )
    assert result.abort_round == first_test
    assert result.rounds[-1].verdict == "aborted"


def test_secret_share_single_round_abort_rate_tracks_test_fraction():
    # A tampered single-round run aborts exactly when that round is a test
    # round, which happens with probability 1/5 per round.
    ps = parity_system(S32, GHZ_PARITIES)
    flip = lambda r, c, outcomes: (outcomes[0] ^ 1,) + outcomes[1:]
    trials = 2000
    aborts = sum(
        secret_share_simulate(ps, (1,), 1, F(1, 5), seed, tamper=flip).aborted
        for seed in range(trials)
    )
    # Binomial(2000, 1/5): five-sigma band around the mean.
    mean = trials / 5
    sigma = (trials * F(1, 5) * F(4, 5)) ** 0.5
    assert abs(aborts - mean) < 5 * sigma
