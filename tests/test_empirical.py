from fractions import Fraction

import pytest

from amcc.catalog import asymmetric_scc_model, ghz_model, pr_box, three_way_box
from amcc.empirical import (
    EmpiricalModel,
    deterministic_model,
    format_rational,
    from_global_distribution,
    is_maximal_marginal,
    is_no_signaling,
    lift_uniform,
    make_model,
    marginal,
    mix,
    model_from_dict,
    model_to_dict,
    parse_rational,
    possibilistic_collapse,
    possibilistic_from_dict,
    possibilistic_to_dict,
    PossibilisticModel,
    RATIONAL_DIGIT_LIMIT,
)
from amcc.errors import (
    DuplicateLabel,
    EmptySupport,
    MalformedInput,
    NegativeEntry,
    NotASubset,
    RowNotNormalized,
    SignalingDetected,
)
from amcc.scenario import bell_scenario

H = Fraction(1, 2)
Q = Fraction(1, 4)
S22 = bell_scenario(2, 2)


def pr_rows():
    # x1 + x2 = X1*X2 (mod 2): correlated on three contexts, anticorrelated on the last.
    corr = (H, 0, 0, H)
    anti = (0, H, H, 0)
    return [corr, corr, corr, anti]


def test_make_model_accepts_pr_table():
    model = make_model(S22, pr_rows())
    assert model.tables[0] == (H, Fraction(0), Fraction(0), H)


def test_make_model_rejects_unnormalized_row():
    rows = pr_rows()
    rows[2] = (H, 0, 0, Q)
    with pytest.raises(RowNotNormalized):
        make_model(S22, rows)


def test_make_model_rejects_negative_entry():
    rows = pr_rows()
    rows[1] = (Fraction(3, 2), 0, 0, -H)
    with pytest.raises(NegativeEntry):
        make_model(S22, rows)


def test_make_model_detects_signaling_with_witness():
    # Context (X1,X2) is deterministic on (0,0) but context (X1,X2p) puts
    # all of Alice's X1=0 mass elsewhere.
    rows = [
        (1, 0, 0, 0),
        (0, 0, H, H),
        (H, 0, H, 0),
        (H, 0, 0, H),
    ]
    with pytest.raises(SignalingDetected) as err:
        make_model(S22, rows)
    witness = err.value.witness
    assert (witness.context_a, witness.context_b) == (0, 1)
    assert witness.overlap == ("X1",)
    assert witness.marginal_a == (Fraction(1), Fraction(0))
    assert witness.marginal_b == (Fraction(0), Fraction(1))


def test_is_no_signaling_witness_matches_make_model():
    # make_model always validates, so the unvalidated table is built as the
    # bare dataclass; is_no_signaling must find the witness make_model raises.
    rows = [
        (1, 0, 0, 0),
        (0, 0, H, H),
        (H, 0, H, 0),
        (H, 0, 0, H),
    ]
    with pytest.raises(SignalingDetected) as err:
        make_model(S22, rows)
    assert err.value.witness.overlap == ("X1",)
    raw = EmpiricalModel(S22, tuple(tuple(Fraction(x) for x in row) for row in rows))
    ok, witness = is_no_signaling(raw)
    assert not ok and witness == err.value.witness


def test_marginal_pr_single_observable():
    model = pr_box(0, 0, 0)
    assert marginal(model, 0, ("X1",)) == (H, H)
    assert marginal(model, 3, ("X2p",)) == (H, H)


def test_marginal_ghz_bipartite_uniform():
    model = ghz_model()
    assert marginal(model, 0, ("X1", "X2")) == (Q, Q, Q, Q)
    assert marginal(model, 0, ("X2", "X3")) == (Q, Q, Q, Q)


def test_marginal_full_context_is_row():
    model = pr_box(0, 0, 0)
    assert marginal(model, 0, ("X1", "X2")) == model.tables[0]


def test_marginal_sums_to_one():
    model = asymmetric_scc_model()
    for c in range(8):
        for subset in (("X1",), ("X2",), ("X3",)):
            labels = tuple(model.scenario.contexts[c][i] for i in range(3))
            assert sum(marginal(model, c, labels[:2])) == 1


def test_marginal_rejects_non_subset():
    with pytest.raises(NotASubset):
        marginal(pr_box(0, 0, 0), 0, ("X1p",))


def test_is_no_signaling_catalog_models():
    for model in (pr_box(1, 0, 1), ghz_model(), three_way_box(), asymmetric_scc_model()):
        ok, witness = is_no_signaling(model)
        assert ok and witness is None


def test_possibilistic_collapse_pr_pattern():
    collapse = possibilistic_collapse(pr_box(0, 0, 0))
    assert collapse.supports == (
        (True, False, False, True),
        (True, False, False, True),
        (True, False, False, True),
        (False, True, True, False),
    )


def test_possibilistic_collapse_uniform_and_deterministic():
    uniform = make_model(S22, [(Q, Q, Q, Q)] * 4)
    assert all(all(row) for row in possibilistic_collapse(uniform).supports)
    det = deterministic_model(S22, (0, 1, 1, 0))
    assert all(sum(row) == 1 for row in possibilistic_collapse(det).supports)


def test_is_maximal_marginal_verdicts():
    assert is_maximal_marginal(ghz_model()) == (True, None)
    assert is_maximal_marginal(three_way_box())[0]
    ok, witness = is_maximal_marginal(asymmetric_scc_model())
    assert not ok
    # First failure in canonical order: context (0,0,0), subset {X1}.
    assert witness.context == 0
    assert witness.subset == ("X1",)
    assert witness.marginal == (Fraction(3, 4), Q)


def test_asymmetric_marginal_matches_direct_sum():
    # Independent check of the witness value: sum the verbatim first row of
    # the asymmetric table over x2, x3.
    row = asymmetric_scc_model().tables[0]
    x1_zero = row[0] + row[1] + row[2] + row[3]
    x1_one = row[4] + row[5] + row[6] + row[7]
    assert (x1_zero, x1_one) == (Fraction(3, 4), Q)


def test_lift_uniform_pr_pattern_gives_pr_box():
    poss = possibilistic_collapse(pr_box(0, 0, 0))
    assert lift_uniform(poss).tables == pr_box(0, 0, 0).tables


def test_lift_uniform_all_true_gives_uniform():
    poss = PossibilisticModel(S22, ((True,) * 4,) * 4)
    assert lift_uniform(poss).tables == ((Q, Q, Q, Q),) * 4


def test_lift_uniform_rejects_empty_support():
    with pytest.raises(EmptySupport):
        lift_uniform(
            PossibilisticModel(
                S22,
                (
                    (True, True, True, True),
                    (False, False, False, False),
                    (True, True, True, True),
                    (True, True, True, True),
                ),
            )
        )


def test_lift_uniform_detects_probabilistic_signaling():
    # Boolean-NS (every projection covers both outcomes) but asymmetric: a
    # 3-section support lifts to thirds while the full rows lift to quarters.
    poss = PossibilisticModel(
        S22,
        (
            (True, True, True, False),
            (True, True, True, True),
            (True, True, True, True),
            (True, True, True, True),
        ),
    )
    with pytest.raises(SignalingDetected) as err:
        lift_uniform(poss)
    witness = err.value.witness
    assert witness.marginal_a == (Fraction(2, 3), Fraction(1, 3))
    assert witness.marginal_b == (H, H)


def test_mix_interpolates_tables():
    a = pr_box(0, 0, 0)
    b = deterministic_model(S22, (0, 0, 0, 0))
    mixed = mix([a, b], [H, H])
    assert mixed.tables[0][0] == H * H + H
    ok, _ = is_no_signaling(mixed)
    assert ok


def test_from_global_distribution_marginals():
    weights = {(0, 0, 0, 0): H, (1, 1, 1, 1): H}
    model = from_global_distribution(S22, weights)
    assert model.tables[0] == (H, 0, 0, H)
    with pytest.raises(RowNotNormalized):
        from_global_distribution(S22, {(0, 0, 0, 0): H})


def test_from_global_distribution_rejects_non_bit_assignments():
    # Each must fail before a row is built, not as a signaling or index error.
    for values in ((0, 0, 0, 2), (2, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0), (0, 0, 0, 0, 0)):
        with pytest.raises(NotASubset):
            from_global_distribution(S22, {values: 1})
        with pytest.raises(NotASubset):
            deterministic_model(S22, values)
    with pytest.raises(NotASubset):
        from_global_distribution(S22, {(0, 0, 0, 0): H, (0, 0, 0, 0.5): H})


def test_marginal_rejects_repeated_subset_label():
    model = ghz_model()
    with pytest.raises(DuplicateLabel):
        marginal(model, 0, ("X1", "X1"))
    assert marginal(model, 0, ("X1",)) == (H, H)


def test_rational_formatting_roundtrip():
    for text in ("0", "1", "3/4", "1/8", "-5/2"):
        assert format_rational(parse_rational(text)) == text


def test_parse_rational_rejects_other_forms():
    assert parse_rational("6/8") == Fraction(3, 4)
    assert parse_rational(2) == 2
    too_long = "1" * (RATIONAL_DIGIT_LIMIT + 1)
    for text in ("2.5e-3", "1e200000", "1/0", " 1", "1/-2", "0x10", "", "1/", too_long, "1/" + too_long, None, [1]):
        with pytest.raises(MalformedInput):
            parse_rational(text)


def test_model_json_roundtrip():
    model = ghz_model()
    payload = model_to_dict(model)
    assert payload["tables"]["X1|X2|X3"][1] == "1/4"
    assert model_from_dict(payload).tables == model.tables


def test_model_json_rejects_missing_context():
    payload = model_to_dict(pr_box(0, 0, 0))
    del payload["tables"]["X1|X2"]
    with pytest.raises(RowNotNormalized):
        model_from_dict(payload)


def test_possibilistic_json_roundtrip():
    poss = possibilistic_collapse(pr_box(1, 1, 0))
    payload = possibilistic_to_dict(poss)
    # Same shape as the model JSON, rows replaced by 0/1 arrays.  For
    # (alpha, beta, gamma) = (1, 1, 0) the (X1, X2) context is correlated.
    assert payload["tables"]["X1|X2"] == [1, 0, 0, 1]
    assert possibilistic_from_dict(payload).supports == poss.supports


@pytest.mark.parametrize(
    "row", [["0", "0", "no", []], [2, 0, 0, -1], [1.0, 0, 0, 1], [None, 1, 0, 0], ["1", 0, 0, 1]]
)
def test_possibilistic_json_rejects_non_bit_cells(row):
    payload = possibilistic_to_dict(possibilistic_collapse(pr_box(0, 0, 0)))
    payload["tables"]["X1|X2"] = row
    with pytest.raises(MalformedInput):
        possibilistic_from_dict(payload)


def test_possibilistic_json_accepts_json_booleans():
    payload = possibilistic_to_dict(possibilistic_collapse(pr_box(0, 0, 0)))
    payload["tables"]["X1|X2"] = [True, False, 0, 1]
    assert possibilistic_from_dict(payload).supports[0] == (True, False, False, True)


def test_possibilistic_json_rejects_unknown_context():
    payload = possibilistic_to_dict(possibilistic_collapse(pr_box(0, 0, 0)))
    payload["tables"]["X1|Y9"] = [1, 0, 0, 1]
    with pytest.raises(EmptySupport):
        possibilistic_from_dict(payload)
    payload = model_to_dict(pr_box(0, 0, 0))
    payload["tables"]["X1|Y9"] = ["1/2", "0", "0", "1/2"]
    with pytest.raises(RowNotNormalized):
        model_from_dict(payload)
