import hashlib
import json
import math
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amcc import empirical
from amcc.catalog import asymmetric_scc_model, ghz_model, pr_box, three_way_box
from amcc.empirical import (
    EmpiricalModel,
    MarginalWitness,
    SignalingWitness,
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
    exact_rational,
    possibilistic_to_dict,
    PossibilisticModel,
    DENOMINATOR_LIMIT,
    RATIONAL_DIGIT_LIMIT,
)
from amcc.errors import (
    ContextualityError,
    DuplicateLabel,
    EmptySupport,
    MalformedInput,
    NegativeEntry,
    NotASubset,
    RowNotNormalized,
    ShapeMismatch,
    SignalingDetected,
    TooLarge,
)
from amcc.scenario import bell_scenario, label_positions, make_scenario, overlaps

from _generators import (
    SCENARIO_32,
    cycle_scenario,
    fraction_rows,
    large_denominator_document,
    near_uniform_marginal_models,
    ns_models_222,
    raw_models,
    support_patterns_222,
    symmetric_models,
    vertex_mixtures,
)
from _oracles import (
    marginal_bruteforce,
    non_uniform_marginal_bruteforce,
    signaling_bruteforce,
)

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
    assert fraction_rows(model)[0] == (H, Fraction(0), Fraction(0), H)
    assert (model.den, model.numerators[0]) == (2, (1, 0, 0, 1))


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
    raw = EmpiricalModel(S22, 2, tuple(tuple(int(2 * x) for x in row) for row in rows))
    ok, witness = is_no_signaling(raw)
    assert not ok and witness == err.value.witness


def test_marginal_pr_single_observable():
    model = pr_box(0, 0, 0)
    assert model.den == 2
    assert marginal(model, 0, ("X1",)) == (1, 1)
    assert marginal(model, 3, ("X2p",)) == (1, 1)


def test_marginal_ghz_bipartite_uniform():
    model = ghz_model()
    assert model.den == 8
    assert marginal(model, 0, ("X1", "X2")) == (2, 2, 2, 2)
    assert marginal(model, 0, ("X2", "X3")) == (2, 2, 2, 2)


def test_marginal_full_context_is_row():
    model = pr_box(0, 0, 0)
    assert marginal(model, 0, ("X1", "X2")) == model.numerators[0]


def test_marginal_sums_to_one():
    model = asymmetric_scc_model()
    for c in range(8):
        for subset in (("X1",), ("X2",), ("X3",)):
            labels = tuple(model.scenario.contexts[c][i] for i in range(3))
            assert sum(marginal(model, c, labels[:2])) == model.den


def test_marginal_rejects_non_subset():
    with pytest.raises(NotASubset, match=r"'X1p' is not in the domain \('X1', 'X2'\)"):
        marginal(pr_box(0, 0, 0), 0, ("X1p",))


def test_is_no_signaling_catalog_models():
    for model in (pr_box(1, 0, 1), ghz_model(), three_way_box(), asymmetric_scc_model()):
        ok, witness = is_no_signaling(model)
        assert ok and witness is None


def test_possibilistic_collapse_pr_pattern():
    collapse = possibilistic_collapse(pr_box(0, 0, 0))
    assert collapse.masks == (0b1001, 0b1001, 0b1001, 0b0110)


def test_possibilistic_collapse_uniform_and_deterministic():
    uniform = make_model(S22, [(Q, Q, Q, Q)] * 4)
    assert possibilistic_collapse(uniform).masks == (0b1111,) * 4
    det = deterministic_model(S22, (0, 1, 1, 0))
    assert all(mask.bit_count() == 1 for mask in possibilistic_collapse(det).masks)


def test_is_maximal_marginal_verdicts():
    assert is_maximal_marginal(ghz_model()) == (True, None)
    assert is_maximal_marginal(three_way_box())[0]
    assert is_maximal_marginal(pr_box(0, 0, 0))[0]
    assert is_maximal_marginal(pr_box(1, 1, 0))[0]
    assert not is_maximal_marginal(deterministic_model(S22, (0, 0, 0, 0)))[0]
    ok, witness = is_maximal_marginal(asymmetric_scc_model())
    assert not ok
    # First failure in canonical order: context (0,0,0), subset {X1}.
    assert witness.context == 0
    assert witness.subset == ("X1",)
    assert witness.marginal == (Fraction(3, 4), Q)


def test_asymmetric_marginal_matches_direct_sum():
    # Independent check of the witness value: sum the verbatim first row of
    # the asymmetric table over x2, x3.
    row = fraction_rows(asymmetric_scc_model())[0]
    x1_zero = row[0] + row[1] + row[2] + row[3]
    x1_one = row[4] + row[5] + row[6] + row[7]
    assert (x1_zero, x1_one) == (Fraction(3, 4), Q)


def test_lift_uniform_pr_pattern_gives_pr_box():
    poss = possibilistic_collapse(pr_box(0, 0, 0))
    assert lift_uniform(poss) == pr_box(0, 0, 0)


def test_lift_uniform_all_true_gives_uniform():
    poss = PossibilisticModel(S22, (0b1111,) * 4)
    assert fraction_rows(lift_uniform(poss)) == ((Q, Q, Q, Q),) * 4


def test_lift_uniform_rejects_empty_support():
    with pytest.raises(EmptySupport):
        lift_uniform(PossibilisticModel(S22, (0b1111, 0b0000, 0b1111, 0b1111)))


def test_lift_uniform_detects_probabilistic_signaling():
    # Boolean-NS (every projection covers both outcomes) but asymmetric: a
    # 3-section support lifts to thirds while the full rows lift to quarters.
    poss = PossibilisticModel(S22, (0b0111, 0b1111, 0b1111, 0b1111))
    with pytest.raises(SignalingDetected) as err:
        lift_uniform(poss)
    witness = err.value.witness
    assert witness.marginal_a == (Fraction(2, 3), Fraction(1, 3))
    assert witness.marginal_b == (H, H)


def test_lift_uniform_refuses_masks_that_do_not_fit_the_contexts():
    # These used to fail late, as RowNotNormalized ("sums to 4", "sums to
    # 4/5") or IndexOutOfRange, after rows were built from the bad masks.
    for mask in (-1, 0x1F):
        with pytest.raises(ShapeMismatch, match="context 1 has a bit past section 3"):
            lift_uniform(PossibilisticModel(S22, (0xF, mask, 0xF, 0xF)))
    with pytest.raises(ShapeMismatch, match="6 support masks for 4 contexts"):
        lift_uniform(PossibilisticModel(S22, (0xF,) * 6))


def test_mix_interpolates_tables():
    a = pr_box(0, 0, 0)
    b = deterministic_model(S22, (0, 0, 0, 0))
    mixed = mix([a, b], [H, H])
    assert fraction_rows(mixed)[0][0] == H * H + H
    ok, _ = is_no_signaling(mixed)
    assert ok


def test_from_global_distribution_marginals():
    weights = {(0, 0, 0, 0): H, (1, 1, 1, 1): H}
    model = from_global_distribution(S22, weights)
    assert fraction_rows(model)[0] == (H, 0, 0, H)
    with pytest.raises(RowNotNormalized):
        from_global_distribution(S22, {(0, 0, 0, 0): H})


# --- exact rationals at the Python entry points ------------------------------

NOT_EXACT = (0.25, Decimal("0.25"), True, None)


def test_exact_rational_reads_only_exact_values():
    assert exact_rational(Q) == Q and exact_rational(3) == 3
    assert exact_rational("1/4") == Q and exact_rational("-2") == -2
    for x in NOT_EXACT:
        with pytest.raises(MalformedInput, match="not an exact rational"):
            exact_rational(x)
    # Strings follow the JSON grammar: no decimals, exponents or spaces.
    for text in ("0.25", "1e-2", " 1/4"):
        with pytest.raises(MalformedInput, match="not a rational k or k/d"):
            exact_rational(text)


def test_make_model_refuses_floats():
    # 0.25 is exact in binary, so only the reader can tell it from 1/4.
    for x in NOT_EXACT:
        with pytest.raises(MalformedInput):
            make_model(S22, [[x, Q, Q, Q]] + [[Q] * 4] * 3)
    uniform = make_model(S22, [[Q] * 4] * 4)
    assert make_model(S22, [["1/4", Q, Q, Q]] + [[Q] * 4] * 3) == uniform
    assert fraction_rows(make_model(S22, [[1, 0, 0, 0]] * 4))[0] == (1, 0, 0, 0)


def test_mix_refuses_float_weights():
    a, b = pr_box(0, 0, 0), deterministic_model(S22, (0, 0, 0, 0))
    with pytest.raises(MalformedInput):
        mix([a, b], [0.5, 0.5])
    assert mix([a, b], ["1/2", H]) == mix([a, b], [H, H])
    assert mix([a, b], [1, 0]) == a


def test_from_global_distribution_refuses_float_weights():
    with pytest.raises(MalformedInput):
        from_global_distribution(S22, {(0, 0, 0, 0): 0.5, (1, 1, 1, 1): 0.5})
    halves = from_global_distribution(S22, {(0, 0, 0, 0): H, (1, 1, 1, 1): H})
    assert from_global_distribution(S22, {(0, 0, 0, 0): "1/2", (1, 1, 1, 1): H}) == halves
    assert from_global_distribution(S22, {(0, 0, 0, 0): 1}) == deterministic_model(S22, (0,) * 4)


def test_deterministic_model_does_not_enumerate_global_assignments():
    # 2**20 global assignments; only the given one is restricted to each context.
    start = time.perf_counter()
    model = deterministic_model(cycle_scenario(20), (0,) * 20)
    assert time.perf_counter() - start < 1
    assert fraction_rows(model) == ((1, 0, 0, 0),) * 20


def test_from_global_distribution_rejects_non_bit_assignments():
    # Each must fail before a row is built, not as a signaling or index error;
    # (True, 0, 0, 0) used to be read as the assignment (1, 0, 0, 0).
    for values in ((0, 0, 0, 2), (2, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0), (0, 0, 0, 0, 0),
                   (True, 0, 0, 0), (0, False, 0, 0)):
        with pytest.raises(NotASubset):
            from_global_distribution(S22, {values: 1})
        with pytest.raises(NotASubset):
            deterministic_model(S22, values)
    with pytest.raises(NotASubset):
        from_global_distribution(S22, {(0, 0, 0, 0): H, (0, 0, 0, 0.5): H})


def test_marginal_context_index_must_be_an_int():
    # 1.5 used to raise a bare TypeError and True to read context 1.
    model = pr_box(0, 0, 0)
    for c in (1.5, True):
        with pytest.raises(MalformedInput, match="context index must be an int"):
            marginal(model, c, ("X1",))


def test_marginal_rejects_repeated_subset_label():
    model = ghz_model()
    with pytest.raises(DuplicateLabel, match=r"duplicate label in \('X1', 'X1'\)"):
        marginal(model, 0, ("X1", "X1"))
    assert marginal(model, 0, ("X1",)) == (4, 4) and model.den == 8


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
    assert fraction_rows(model_from_dict(payload)) == fraction_rows(model)


def test_model_json_rejects_missing_context():
    payload = model_to_dict(pr_box(0, 0, 0))
    del payload["tables"]["X1|X2"]
    with pytest.raises(RowNotNormalized):
        model_from_dict(payload)


def test_model_json_names_a_missing_field():
    payload = model_to_dict(pr_box(0, 0, 0))
    del payload["tables"]
    with pytest.raises(MalformedInput, match="missing field 'tables'"):
        model_from_dict(payload)


def test_common_denominator_bound():
    s = make_scenario(["Y"], [("Y",)])
    below = DENOMINATOR_LIMIT - 1
    assert make_model(s, [[Fraction(1, below), Fraction(below - 1, below)]]).den == below
    with pytest.raises(TooLarge, match="common denominator"):
        make_model(s, [[Fraction(1, DENOMINATOR_LIMIT), 1 - Fraction(1, DENOMINATOR_LIMIT)]])


def test_row_normalization_is_checked_before_the_common_denominator():
    payload = large_denominator_document("singletons")
    payload["tables"]["Y0"] = ["1/2", "1/4"]
    with pytest.raises(RowNotNormalized, match="context 0 sums to 3/4"):
        model_from_dict(payload)


def test_json_checks_row_width_before_reading_cells():
    # The malformed last cell is never read: the width error comes first.
    payload = model_to_dict(pr_box(0, 0, 0))
    payload["tables"]["X1|X2"] = ["1/2", "0", "0", "1/2"] * 1000 + ["not a rational"]
    with pytest.raises(RowNotNormalized, match="needs 4 entries, got 4001"):
        model_from_dict(payload)


def test_row_width_error_names_the_context_labels():
    # make_model is the one width check, for Python rows and JSON rows alike.
    rows = [[H, 0, 0, H], [H, 0, 0], [H, 0, 0, H], [0, H, H, 0]]
    with pytest.raises(RowNotNormalized, match=r"context 1 \(X1\|X2p\) needs 4 entries, got 3"):
        make_model(S22, rows)
    payload = model_to_dict(pr_box(0, 0, 0))
    payload["tables"]["X1|X2p"] = ["1/2", "0", "0"]
    with pytest.raises(RowNotNormalized, match=r"context 1 \(X1\|X2p\) needs 4 entries, got 3"):
        model_from_dict(payload)


def test_json_rows_are_read_one_at_a_time_in_context_order():
    # The first row does not sum to 1 and a later cell is not a rational:
    # make_model refuses the first row before it reads the later one.
    payload = model_to_dict(pr_box(0, 0, 0))
    payload["tables"]["X1|X2"] = ["1/2", "0", "0", "1/4"]
    payload["tables"]["X1p|X2p"] = ["0", "1/2", "1/2", "0.0"]
    with pytest.raises(RowNotNormalized, match="context 0 sums to 3/4"):
        model_from_dict(payload)
    payload["tables"]["X1|X2"] = ["1/2", "0", "0", "1/2"]
    with pytest.raises(MalformedInput, match="not a rational"):
        model_from_dict(payload)


def test_json_cells_are_refused_as_parse_rational_refuses_them():
    # make_model reads "k/d" cells to integer pairs without parse_rational,
    # with its grammar and messages; every cell of a row is read before the
    # row's common denominator is checked.
    payload = model_to_dict(pr_box(0, 0, 0))
    too_long = "1" * (RATIONAL_DIGIT_LIMIT + 1)
    for cell in ("0.5", "1/0", "1/" + too_long, " 1", "1/-2"):
        with pytest.raises(MalformedInput) as expected:
            parse_rational(cell)
        payload["tables"]["X1|X2"] = ["1/2", "0", "0", cell]
        with pytest.raises(MalformedInput) as got:
            model_from_dict(payload)
        assert str(got.value) == str(expected.value)
    # Eleven 100-digit denominators with a common multiple past the limit.
    s = make_scenario([f"Y{k}" for k in range(4)], [[f"Y{k}" for k in range(4)]])
    cells = [f"1/{10**99 + k}" for k in range(1, 12)] + ["0"] * 5
    with pytest.raises(TooLarge, match="common denominator"):
        make_model(s, [cells])
    with pytest.raises(MalformedInput, match="not a rational"):
        make_model(s, [cells[:-1] + ["0.5"]])


def test_json_integer_cells_are_read_as_integers():
    payload = model_to_dict(deterministic_model(S22, (0, 1, 1, 0)))
    payload["tables"] = {key: [int(x) for x in row] for key, row in payload["tables"].items()}
    assert model_from_dict(payload) == deterministic_model(S22, (0, 1, 1, 0))
    # A JSON integer past the 100-digit string limit cannot form a normalised row.
    big = 10 ** (RATIONAL_DIGIT_LIMIT + 50)
    payload["tables"]["X1|X2"] = [big, 0, 0, 1 - big]
    with pytest.raises(NegativeEntry):
        model_from_dict(payload)
    payload["tables"]["X1|X2"] = [big, 0, 0, 0]
    with pytest.raises(RowNotNormalized):
        model_from_dict(payload)
    for cell in (True, 1.0, None, [1]):
        payload["tables"]["X1|X2"] = [cell, 0, 0, 0]
        with pytest.raises(MalformedInput):
            model_from_dict(payload)


def test_possibilistic_json_shape():
    # Same shape as the model JSON, rows replaced by 0/1 arrays.  For
    # (alpha, beta, gamma) = (1, 1, 0) the (X1, X2) context is correlated.
    payload = possibilistic_to_dict(possibilistic_collapse(pr_box(1, 1, 0)))
    assert payload["tables"]["X1|X2"] == [1, 0, 0, 1]


def test_possibilistic_json_refuses_masks_that_do_not_fit_the_contexts():
    # Bit 4 used to be dropped from the 0/1 row, and three masks used to
    # give a document with no row for the last context.
    with pytest.raises(ShapeMismatch, match="context 0 has a bit past section 3"):
        possibilistic_to_dict(PossibilisticModel(S22, (0x1F, 0xF, 0xF, 0xF)))
    with pytest.raises(ShapeMismatch, match="3 support masks for 4 contexts"):
        possibilistic_to_dict(PossibilisticModel(S22, (0xF,) * 3))


def test_model_json_rejects_unknown_context():
    payload = model_to_dict(pr_box(0, 0, 0))
    payload["tables"]["X1|Y9"] = ["1/2", "0", "0", "1/2"]
    with pytest.raises(RowNotNormalized):
        model_from_dict(payload)


# --- canonical form: den is the least common denominator -------------------

CANONICAL = settings(max_examples=200, deadline=None)


def assert_canonical(model):
    cells = [x for row in model.numerators for x in row]
    assert type(model.den) is int and model.den > 0
    assert all(type(x) is int and x >= 0 for x in cells)
    assert math.gcd(model.den, *cells) == 1


def test_equal_probabilities_give_equal_models():
    payload = model_to_dict(pr_box(0, 0, 0))
    payload["tables"]["X1|X2"] = ["2/4", "0", "0", "4/8"]
    assert model_from_dict(payload) == pr_box(0, 0, 0)


@CANONICAL
@given(symmetric_models(), st.integers(2, 6))
def test_unreduced_cells_give_the_same_model(model, k):
    payload = model_to_dict(model)
    for key, row in payload["tables"].items():
        cells = map(parse_rational, row)
        payload["tables"][key] = [f"{k * q.numerator}/{k * q.denominator}" for q in cells]
    assert model_from_dict(payload) == model


@CANONICAL
@given(st.one_of(ns_models_222(), symmetric_models()))
def test_models_are_canonical_and_survive_json(model):
    assert_canonical(model)
    assert model_from_dict(model_to_dict(model)) == model


@CANONICAL
@given(vertex_mixtures(SCENARIO_32), vertex_mixtures(SCENARIO_32), st.integers(0, 8))
def test_mix_returns_canonical_den(a, b, k):
    w = Fraction(k, 8)
    mixed = mix([a, b], [w, 1 - w])
    assert_canonical(mixed)
    assert fraction_rows(mixed) == tuple(
        tuple(w * x + (1 - w) * y for x, y in zip(row_a, row_b))
        for row_a, row_b in zip(fraction_rows(a), fraction_rows(b))
    )
    if k in (0, 8):
        assert mixed == (b if k == 0 else a)


@CANONICAL
@given(support_patterns_222())
def test_lift_uniform_returns_canonical_den(pattern):
    try:
        lifted = lift_uniform(pattern)
    except SignalingDetected:
        return
    assert_canonical(lifted)
    assert lifted.den == math.lcm(*(mask.bit_count() for mask in pattern.masks))


# --- integer rows over a denominator, and marginals against brute force ----------

ORACLE = settings(max_examples=200, deadline=None)


def _outcome(build):
    """The model ``build()`` returns, or the class and message of the domain error it raises."""
    try:
        return build()
    except ContextualityError as exc:
        return type(exc), str(exc)


@ORACLE
@given(raw_models(), st.integers(1, 3), st.sampled_from([0, 1, 2]), st.data())
def test_integer_rows_over_den_match_fraction_rows(model, k, skew, data):
    # Scaled, unnormalized (skew 2 doubles den) or with one negated entry:
    # the integer path and the Fraction path give the same model or error.
    s = model.scenario
    den = k * model.den * (2 if skew == 2 else 1)
    rows = [[k * x for x in row] for row in model.numerators]
    if skew == 1:
        c = data.draw(st.integers(0, s.n_contexts - 1))
        sec = data.draw(st.integers(0, s.n_sections(c) - 1))
        rows[c][sec] = -rows[c][sec] - 1
    fractions = [[Fraction(x, den) for x in row] for row in rows]
    expected = _outcome(lambda: make_model(s, fractions))
    assert _outcome(lambda: make_model(s, rows, den)) == expected
    assert _outcome(lambda: make_model(s, [tuple(row) for row in rows], den)) == expected


@pytest.mark.parametrize("den", [0, -4, True, False, 2.0, 0.5, Fraction(2), "2"])
def test_make_model_refuses_a_den_that_is_not_a_positive_int(den):
    with pytest.raises(MalformedInput, match="den must be a positive int"):
        make_model(S22, [[1, 0, 0, 1]] * 4, den)


@pytest.mark.parametrize(
    "den, shown",
    [(-10**5000, "of 16610 bits"), (Fraction(10**5000), "Fraction of 16610/1 bits")],
    ids=["negative int", "Fraction"],
)
def test_a_huge_bad_den_is_named_by_its_size(den, shown):
    # repr() of either refuses past 4 300 digits with a bare ValueError.
    with pytest.raises(MalformedInput, match=f"den must be a positive int; den {shown} is not"):
        make_model(S22, [[1, 0, 0, 1]] * 4, den)


@pytest.mark.parametrize("row", [[1, 0, 0, 0], [-1, 2, 0, 0]])
def test_a_huge_den_is_too_large_before_a_row_message_formats_it(row):
    # The row-sum and negative-entry messages would format 1/10**5000.
    with pytest.raises(TooLarge, match="common denominator"):
        make_model(S22, [row] * 4, 10**5000)


def test_den_at_the_limit_is_too_large_before_any_no_signaling_work(monkeypatch):
    def no_ns(model):
        raise AssertionError("no-signaling check reached")

    monkeypatch.setattr(empirical, "is_no_signaling", no_ns)
    row = [1, DENOMINATOR_LIMIT - 1, 0, 0]
    with pytest.raises(TooLarge, match="common denominator"):
        make_model(S22, [row] * 4, DENOMINATOR_LIMIT)
    # Entries sharing a factor with den reduce below the limit: no error.
    half = DENOMINATOR_LIMIT // 2
    with pytest.raises(AssertionError, match="no-signaling check reached"):
        make_model(S22, [[half, 0, 0, half]] * 4, DENOMINATOR_LIMIT)


@ORACLE
@given(raw_models(), st.data())
def test_marginal_matches_the_brute_force_sum(model, data):
    s = model.scenario
    c = data.draw(st.integers(0, s.n_contexts - 1))
    labels = data.draw(st.permutations(s.contexts[c]))
    subset = tuple(labels[: data.draw(st.integers(1, len(labels)))])
    assert marginal(model, c, subset) == marginal_bruteforce(
        s.contexts[c], model.numerators[c], subset
    )


@ORACLE
@given(raw_models())
def test_no_signaling_and_maximal_marginals_match_the_brute_force(model):
    s, den = model.scenario, model.den
    found = signaling_bruteforce(s.observables, s.contexts, model.numerators)
    expected = (True, None) if found is None else (False, SignalingWitness(
        *found[:3], tuple(Fraction(x, den) for x in found[3]),
        tuple(Fraction(x, den) for x in found[4]),
    ))
    assert is_no_signaling(model) == expected
    found = non_uniform_marginal_bruteforce(s.contexts, model.numerators, den)
    expected = (True, None) if found is None else (False, MarginalWitness(
        *found[:2], tuple(Fraction(x, den) for x in found[2])
    ))
    assert is_maximal_marginal(model) == expected


@ORACLE
@given(st.one_of(raw_models(), near_uniform_marginal_models()))
def test_maximal_marginal_verdict_matches_the_full_walk(model):
    # The verdict comes from the subsets that leave out one label; the
    # oracle and the library's canonical walk visit every proper subset.
    s, den = model.scenario, model.den
    found = non_uniform_marginal_bruteforce(s.contexts, model.numerators, den)
    full = empirical._first_nonuniform(model, empirical._subset_plans(s))
    verdict, witness = is_maximal_marginal(model)
    assert verdict == (found is None) == (full is None)
    if found is not None:
        assert witness == MarginalWitness(*found[:2], tuple(Fraction(x, den) for x in found[2]))


def test_plan_lists_share_one_plan_per_shape_past_the_plan_cache(monkeypatch):
    # Three disjoint 9-label contexts: each has 510 proper subsets, more
    # than the 256 plans the LRU of _marginal_plan holds, and their subsets
    # have the same shapes context by context.  Each plan list builds a
    # shape once, so every context reads the same plan objects.
    labels = [f"Y{k}" for k in range(27)]
    s = make_scenario(labels, [labels[9 * c:9 * c + 9] for c in range(3)])
    by_context = [[plan for c, _, plan in empirical._subset_plans(s) if c == ctx] for ctx in range(3)]
    assert len(by_context[0]) == 510
    assert all(p is q for other in by_context[1:] for p, q in zip(by_context[0], other))
    deciding = empirical._deciding_plans(s)
    assert len(deciding) == 27
    assert all(deciding[k][2] is deciding[k % 9][2] for k in range(27))
    # The uniform model passes on the one-label-out subsets alone, without
    # the list of every subset.
    model = make_model(s, [[1] * 512] * 3, 512)

    def no_subset_plans(s):
        raise AssertionError("every subset was listed")

    monkeypatch.setattr(empirical, "_subset_plans", no_subset_plans)
    assert is_maximal_marginal(model) == (True, None)


def _plan_groups(plan, width):
    """The sections of a ``width``-label context that each getter of ``plan`` picks."""
    return [list(pick(range(1 << width))) for pick in plan]


def test_overlap_plans_match_label_positions_and_the_pinned_digest():
    # Each pair's plans read the shared labels' positions from one lookup per
    # context; they pick the sections the label_positions plan picks, and
    # their digest is the one the per-pair label_positions walk gave.
    digest = hashlib.sha256()
    for s in (bell_scenario(2, 2), SCENARIO_32, bell_scenario(4, 2), cycle_scenario(5)):
        plans = empirical._overlap_plans(s)
        assert [(a, b, shared) for a, b, shared, _, _ in plans] == list(overlaps(s))
        for a, b, shared, plan_a, plan_b in plans:
            groups = []
            for c, plan in ((a, plan_a), (b, plan_b)):
                ctx = s.contexts[c]
                expected = empirical._marginal_plan(len(ctx), label_positions(ctx, shared))
                assert _plan_groups(plan, len(ctx)) == _plan_groups(expected, len(ctx))
                groups.append(_plan_groups(plan, len(ctx)))
            digest.update(json.dumps([a, b, list(shared), groups]).encode() + b"\n")
    assert digest.hexdigest() == (
        "4d336b3c55ed1db785355278e5d1e40212410cd1fe00a0b5146cfa38ff8e2b77"
    )
