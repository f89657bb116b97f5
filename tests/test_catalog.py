import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from amcc.analysis import classify
from amcc.catalog import asymmetric_scc_model, ghz_model, pr_box, three_way_box
from amcc.construct import parity_system, parity_to_possibilistic
from amcc.empirical import (
    is_maximal_marginal,
    is_no_signaling,
    marginal,
    model_to_dict,
    possibilistic_collapse,
)
from amcc.errors import IndexOutOfRange

from _generators import fraction_rows

F = Fraction
H = F(1, 2)
Q = F(1, 4)
E = F(1, 8)

#: Frozen digest of the verbatim asymmetric-table transcription.
ASYMMETRIC_SHA256 = "16d4a6a2618b7e83a1070a3fa02deb7e01bdab5a5ce061bba2e1f9793e7f7e01"


def test_pr_box_entries():
    rows = fraction_rows(pr_box(0, 0, 0))
    # p(00|00) = 1/2, p(01|00) = 0, p(01|11) = 1/2.
    assert rows[0][0] == H
    assert rows[0][1] == 0
    assert rows[3][1] == H


def test_pr_box_support_matches_defining_parity():
    for alpha, beta, gamma in itertools.product((0, 1), repeat=3):
        rows = fraction_rows(pr_box(alpha, beta, gamma))
        for c, (a, b) in enumerate(itertools.product((0, 1), repeat=2)):
            want = (a * b) ^ (alpha * a) ^ (beta * b) ^ gamma
            for sec in range(4):
                x1, x2 = sec >> 1, sec & 1
                expected = H if (x1 ^ x2) == want else 0
                assert rows[c][sec] == expected


def test_pr_boxes_pairwise_distinct():
    tables = {fraction_rows(pr_box(a, b, g)) for a, b, g in itertools.product((0, 1), repeat=3)}
    assert len(tables) == 8


def test_pr_box_marginals_uniform():
    for bits in itertools.product((0, 1), repeat=3):
        assert is_maximal_marginal(pr_box(*bits))[0]


def test_pr_box_rejects_non_bits():
    # 1.0 used to raise a bare TypeError and True to build pr_box(1, 0, 0).
    for flags in ((2, 0, 0), (1.0, 0, 0), (True, 0, 0), (0, 0, False), (10**5000, 0, 0)):
        with pytest.raises(IndexOutOfRange, match="is not a bit"):
            pr_box(*flags)


def test_ghz_rows():
    rows = fraction_rows(ghz_model())
    # Context (0,0,0): f = 1, so odd-parity sections carry 1/4.
    assert rows[0] == (0, Q, Q, 0, Q, 0, 0, Q)
    # Context (0,0,1) is uniformly 1/8.
    assert rows[1] == (E,) * 8
    assert rows[0][1] == Q and rows[0][0] == 0


def test_ghz_uniform_contexts_are_the_odd_prime_count_ones():
    rows = fraction_rows(ghz_model())
    for c, (a, b, d) in enumerate(itertools.product((0, 1), repeat=3)):
        if (a + b + d) % 2 == 1:
            assert rows[c] == (E,) * 8
        else:
            assert sorted(rows[c]) == [0, 0, 0, 0, Q, Q, Q, Q]


def test_ghz_bipartite_marginals_uniform():
    model = ghz_model()
    assert model.den == 8
    for c in range(8):
        ctx = model.scenario.contexts[c]
        for pair in itertools.combinations(ctx, 2):
            assert marginal(model, c, pair) == (2, 2, 2, 2)


def test_three_way_box_supports():
    rows = fraction_rows(three_way_box())
    # Only context (1,1,1) has X1*X2*X3 = 1: odd-parity support there,
    # even-parity support everywhere else.
    assert rows[7] == (0, Q, Q, 0, Q, 0, 0, Q)
    for c in range(7):
        assert rows[c] == (Q, 0, 0, Q, 0, Q, Q, 0)


def test_three_way_box_is_amcc():
    assert classify(three_way_box()).amcc


def test_asymmetric_model_first_row_and_checksum():
    model = asymmetric_scc_model()
    assert fraction_rows(model)[0] == (0, Q, H, 0, Q, 0, 0, 0)
    payload = json.dumps(model_to_dict(model), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == ASYMMETRIC_SHA256


def test_asymmetric_model_is_no_signaling():
    assert is_no_signaling(asymmetric_scc_model()) == (True, None)


def test_asymmetric_model_classification():
    report = classify(asymmetric_scc_model())
    assert report.cf == 1 and not report.amcc


def test_pr_collapse_equals_parity_pattern():
    ps = parity_system(pr_box(0, 0, 0).scenario, (0, 0, 0, 1))
    assert (
        possibilistic_collapse(pr_box(0, 0, 0)).masks
        == parity_to_possibilistic(ps).masks
    )


def test_catalog_models_validate_on_construction():
    for model in (pr_box(1, 0, 1), ghz_model(), three_way_box(), asymmetric_scc_model()):
        assert is_no_signaling(model) == (True, None)
        assert all(sum(row) == 1 for row in fraction_rows(model))
