import math
from fractions import Fraction

import pytest

from amcc.applications import (
    SECRET_SHARE_ROUND_LIMIT,
    guessing_probability,
    min_entropy,
    secret_share_simulate,
)
from amcc.catalog import asymmetric_scc_model, ghz_model, pr_box, three_way_box
from amcc.construct import (
    eight_param_family,
    parity_system,
    scan_eight_param,
    three_param_family,
    twentysix_param_family,
)
from amcc.empirical import (
    deterministic_model,
    from_global_distribution,
    make_model,
    proper_subsets,
)
from amcc.errors import (
    ConsistentResource,
    IndexOutOfRange,
    LengthMismatch,
    MalformedInput,
    NegativeEntry,
    NotASubset,
    OutOfRange,
    RowNotNormalized,
    TooLarge,
)
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


def test_empty_subset_is_rejected_before_any_marginal(monkeypatch):
    def no_marginal(*args):
        raise AssertionError("marginal computed for an empty subset")

    monkeypatch.setattr("amcc.applications.marginal", no_marginal)
    for report in (guessing_probability, min_entropy):
        with pytest.raises(NotASubset):
            report(ghz_model(), 0, ())


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


def test_secret_share_refuses_a_float_test_fraction():
    ps = parity_system(S32, GHZ_PARITIES)
    with pytest.raises(MalformedInput):
        secret_share_simulate(ps, (1,), 10, 0.25, 1)
    run = secret_share_simulate(ps, (1,), 10, "1/4", 1)
    assert run.transcript() == secret_share_simulate(ps, (1,), 10, F(1, 4), 1).transcript()
    # An int is read, then refused as a fraction outside (0, 1).
    with pytest.raises(RowNotNormalized, match="test fraction 1 not in"):
        secret_share_simulate(ps, (1,), 10, 1, 1)


def test_secret_share_refuses_secret_entries_that_are_not_bits():
    ps = parity_system(S32, GHZ_PARITIES)
    rounds_run = []

    def watch(r, c, outcomes):
        rounds_run.append(r)
        return outcomes

    # (2, 3, -1) was once sent as 0, 1, 1 and reported a success; (1.0,)
    # and (True,) were coerced to (1,).
    for secret in ((2, 3, -1), (1, 0, 2), (-1,), (1, F(1, 2)), ("1",), (1.0,), (True,), (0, False)):
        with pytest.raises(LengthMismatch, match="secret bits must be bits"):
            secret_share_simulate(ps, secret, 10, F(1, 5), 1, tamper=watch)
    assert rounds_run == []  # refused before any round is sampled
    assert secret_share_simulate(ps, (1, 0, 1), 10, F(1, 5), 1).success


def test_secret_share_rejects_rounds_outside_the_guard():
    ps = parity_system(S32, GHZ_PARITIES)
    for rounds in (0, -3):
        with pytest.raises(RowNotNormalized):
            secret_share_simulate(ps, (1,), rounds, F(1, 5), 1)
    with pytest.raises(TooLarge):
        secret_share_simulate(ps, (1,), SECRET_SHARE_ROUND_LIMIT + 1, F(1, 5), 1)
    assert len(secret_share_simulate(ps, (1,), 1, F(1, 5), 1).rounds) == 1


def test_secret_share_round_count_is_an_int():
    # 2.5 used to raise a bare TypeError from range(), True to run one round,
    # and 10**5000 a bare ValueError from str() inside the TooLarge message.
    ps = parity_system(S32, GHZ_PARITIES)
    for rounds in (2.5, True, "10", None):
        with pytest.raises(MalformedInput, match="round count must be an int"):
            secret_share_simulate(ps, (1,), rounds, F(1, 5), 1)
    with pytest.raises(TooLarge, match="round count of 16610 bits exceeds"):
        secret_share_simulate(ps, (1,), 10**5000, F(1, 5), 1)
    with pytest.raises(RowNotNormalized, match="round count of 16610 bits is below 1"):
        secret_share_simulate(ps, (1,), -10**5000, F(1, 5), 1)


HUGE = 10**5000
HUGE_CASES = {
    "eight-param": (
        lambda: eight_param_family([F(HUGE)] + [0] * 7),
        OutOfRange, "p1 = Fraction of 16610/1 bits is outside",
    ),
    "scan-eight-param": (
        lambda: scan_eight_param([F(HUGE)]), OutOfRange, "p1 = Fraction of 16610/1 bits",
    ),
    "three-param": (
        lambda: three_param_family(F(HUGE), 0, 0),
        OutOfRange, r"entry \(0,1\) evaluates to Fraction of 16610/1 bits",
    ),
    "twentysix-param": (
        lambda: twentysix_param_family([F(HUGE)] + [0] * 25),
        OutOfRange, r"entry \(0,0\) evaluates to Fraction of 16610/1 bits",
    ),
    "global-weight": (
        lambda: from_global_distribution(S22, {(0, 0, 0, 0): F(HUGE)}),
        RowNotNormalized, "global weights sum to Fraction of 16610/1 bits",
    ),
    "negative-entry": (
        lambda: make_model(S22, [[-HUGE, HUGE + 1, 0, 0]] + [[1, 0, 0, 0]] * 3),
        NegativeEntry, "section 0: negative entry Fraction of 16610/1 bits",
    ),
    "row-sum": (
        lambda: make_model(S22, [[HUGE, 0, 0, 0]] + [[1, 0, 0, 0]] * 3),
        RowNotNormalized, "context 0 sums to Fraction of 16610/1 bits, not 1",
    ),
    "test-fraction": (
        lambda: secret_share_simulate(parity_system(S32, GHZ_PARITIES), (1,), 5, F(HUGE), 1),
        RowNotNormalized, r"test fraction Fraction of 16610/1 bits not in \(0, 1\)",
    ),
    # In range, but its "k/d" string would break the digit rule.
    "test-fraction-digits": (
        lambda: secret_share_simulate(parity_system(S32, GHZ_PARITIES), (1,), 5, F(1, HUGE), 1),
        MalformedInput, "test fraction has more than 100 digits",
    ),
}


@pytest.mark.parametrize("case", HUGE_CASES.values(), ids=HUGE_CASES.keys())
def test_a_huge_rational_is_named_by_its_size(case):
    # str() refuses an integer past 4 300 digits: each message used to raise
    # a bare ValueError instead of the validation error.
    call, error, message = case
    with pytest.raises(error, match=message):
        call()


def test_min_entropy_names_a_huge_context_index_by_its_size():
    # str() refuses the index past 4 300 digits; this used to raise ValueError.
    with pytest.raises(IndexOutOfRange, match="context index of 16610 bits not in 0..7"):
        min_entropy(ghz_model(), 10**5000, ("X1",))
    with pytest.raises(MalformedInput, match="context index must be an int"):
        min_entropy(ghz_model(), 0.0, ("X1",))


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
