import itertools
import json

import pytest

from amcc.errors import (
    ChainViolation,
    CoverViolation,
    DuplicateLabel,
    IndexOutOfRange,
    MalformedInput,
    NotASubset,
    TooLarge,
    UnknownLabel,
)
from amcc.scenario import (
    BELL_CONTEXT_LIMIT,
    bell_scenario,
    bell_token,
    make_scenario,
    overlaps,
    parity_mask,
    parse_bell_token,
    polytope_dimension,
    projection,
    scenario_from_dict,
    scenario_to_dict,
    section_index,
    section_values,
)

OBS_22 = ("X1", "X1p", "X2", "X2p")
CTXS_22 = (("X1", "X2"), ("X1", "X2p"), ("X1p", "X2"), ("X1p", "X2p"))


def test_bell_scenario_222_matches_canonical_cover():
    s = bell_scenario(2, 2)
    assert s.observables == OBS_22
    assert s.contexts == CTXS_22


def test_make_scenario_trivial_single_context():
    s = make_scenario(["A"], [["A"]])
    assert s.contexts == (("A",),)


def test_make_scenario_rejects_contained_context():
    with pytest.raises(ChainViolation):
        make_scenario(["X1", "X2"], [["X1", "X2"], ["X1"]])


def test_make_scenario_rejects_duplicate_context():
    with pytest.raises(ChainViolation):
        make_scenario(["X1", "X2"], [["X1", "X2"], ["X2", "X1"]])


def test_make_scenario_rejects_uncovered_observable():
    with pytest.raises(CoverViolation):
        make_scenario(["X1", "X2", "X3"], [["X1", "X2"]])


def test_make_scenario_rejects_unknown_label():
    with pytest.raises(UnknownLabel):
        make_scenario(["X1"], [["X1", "Y"]])


def test_make_scenario_rejects_duplicates():
    with pytest.raises(DuplicateLabel):
        make_scenario(["X1", "X1"], [["X1"]])
    with pytest.raises(DuplicateLabel):
        make_scenario(["X1", "X2"], [["X1", "X1", "X2"]])


def _restrict_reference(domain, values, target):
    """Independent restriction: look each target label up in a label -> value dict."""
    assignment = dict(zip(domain, values))
    return tuple(assignment[label] for label in target)


def test_context_index_out_of_range():
    s = bell_scenario(2, 2)
    assert s.context(3) == ("X1p", "X2p") and s.n_sections(3) == 4
    for c in (4, -1):
        with pytest.raises(IndexOutOfRange):
            s.context(c)


def test_projection_agrees_with_restrict():
    # Every ordered subset of every context, on bell-3-2 and bell-2-4.
    for s in (bell_scenario(3, 2), bell_scenario(2, 4)):
        for ctx in s.contexts:
            for k in range(len(ctx) + 1):
                for target in itertools.permutations(ctx, k):
                    table = projection(ctx, target)
                    assert len(table) == 1 << len(ctx)
                    for i, sub in enumerate(table):
                        values = section_values(i, len(ctx))
                        assert sub == section_index(_restrict_reference(ctx, values, target))


def test_projection_of_global_assignments_agrees_with_restrict():
    s = bell_scenario(3, 2)
    for ctx in s.contexts:
        table = projection(s.observables, ctx)
        for values in itertools.product((0, 1), repeat=len(s.observables)):
            expected = _restrict_reference(s.observables, values, ctx)
            assert table[section_index(values)] == section_index(expected)


def test_projection_guards_fire_before_enumeration():
    with pytest.raises(NotASubset):
        projection(("X1", "X2"), ("X1p",))
    labels = tuple(f"Y{k}" for k in range(25))  # 2**25 sections
    with pytest.raises(TooLarge):
        projection(labels, labels[:1])


def test_projection_rejects_repeated_target_label():
    # A repeated label would double-count one observable's outcome bit.
    with pytest.raises(DuplicateLabel):
        projection(("X1", "X2"), ("X1", "X1"))
    with pytest.raises(DuplicateLabel):
        projection(tuple(f"Y{k}" for k in range(25)), ("Y0", "Y0"))


def test_scenario_from_dict_rejects_malformed_shapes():
    good = scenario_to_dict(bell_scenario(2, 2))
    for field, value in (("observables", 5), ("observables", [1, 2]), ("contexts", [5]),
                         ("contexts", "X1"), ("contexts", [["X1", ["X2"]]])):
        with pytest.raises(MalformedInput):
            scenario_from_dict(dict(good, **{field: value}))
    with pytest.raises(MalformedInput):
        scenario_from_dict([good])


def test_scenario_from_dict_names_a_missing_field():
    payload = scenario_to_dict(bell_scenario(2, 2))
    del payload["contexts"]
    with pytest.raises(MalformedInput, match="missing field 'contexts'"):
        scenario_from_dict(payload)


def test_parity_mask_matches_bit_count():
    for width in range(1, 5):
        for parity in (0, 1):
            expected = sum(
                1 << sec for sec in range(1 << width) if bin(sec).count("1") % 2 == parity
            )
            assert parity_mask(width, parity) == expected


def _intersecting_pairs(s):
    """Every context pair a < b with its shared labels, by set intersection."""
    out = []
    for a in range(s.n_contexts):
        for b in range(a + 1, s.n_contexts):
            shared = set(s.contexts[a]) & set(s.contexts[b])
            if shared:
                out.append((a, b, tuple(x for x in s.observables if x in shared)))
    return out


def test_overlaps_match_set_intersection():
    # Contexts 0 and 1, 0 and 3, 1 and 2 are disjoint; context 0 lists the
    # shared labels out of observable order.
    cover = make_scenario(
        ["A", "B", "C", "D", "E", "F"],
        [["D", "B", "A"], ["E", "F"], ["A", "B", "C"], ["C", "F"]],
    )
    assert overlaps(cover) == ((0, 2, ("A", "B")), (1, 3, ("F",)), (2, 3, ("C",)))
    for s in (bell_scenario(3, 2), bell_scenario(2, 4), cover):
        assert list(overlaps(s)) == _intersecting_pairs(s)


def test_polytope_dimension_known_values():
    assert polytope_dimension([2, 2], [[2, 2], [2, 2]]) == 8
    assert polytope_dimension([2, 2, 2], [[2, 2], [2, 2], [2, 2]]) == 26
    assert polytope_dimension([1], [[2]]) == 1


def test_polytope_dimension_rejects_bad_shapes():
    with pytest.raises(IndexOutOfRange):
        polytope_dimension([2], [[2], [2]])
    with pytest.raises(IndexOutOfRange):
        polytope_dimension([2], [[2, 0]])


def test_scenario_json_roundtrip():
    s = bell_scenario(2, 2)
    payload = scenario_to_dict(s)
    assert list(payload) == ["observables", "contexts", "outcomes"]
    assert payload["outcomes"] == 2
    assert json.loads(json.dumps(payload)) == payload
    assert scenario_from_dict(payload) == s
    with pytest.raises(TooLarge):
        scenario_from_dict(dict(payload, outcomes=3))


def test_bell_tokens_roundtrip():
    assert parse_bell_token("bell-3-2-2") == bell_scenario(3, 2)
    assert parse_bell_token("bell-2-2") == bell_scenario(2, 2)
    assert bell_token(bell_scenario(3, 2)) == "bell-3-2-2"
    assert bell_token(make_scenario(["A", "B"], [["A", "B"]])) is None
    with pytest.raises(UnknownLabel):
        parse_bell_token("ring-2-2")
    with pytest.raises(TooLarge):
        parse_bell_token("bell-2-2-3")


@pytest.mark.parametrize(
    "token",
    ["bell-1_0-1", "bell- 2-2", "bell- 2-+2-2", "bell-+2-2", "bell-2--2", "bell-2-2-+2", "bell-\u0662-\u0662",
     "bell-2-2\n", "bell-2-2-"],
)
def test_bell_token_counts_are_ascii_digits(token):
    with pytest.raises(UnknownLabel):
        parse_bell_token(token)


def test_bell_scenario_guards_fire_before_building():
    with pytest.raises(TooLarge, match="26 observables"):
        bell_scenario(13, 2)
    with pytest.raises(TooLarge, match="6561 contexts"):
        bell_scenario(8, 3)  # 24 observables, within the enumeration guard
    for token in ("bell-2-300", "bell-3-300", "bell-1000-1000"):
        with pytest.raises(TooLarge, match="observables exceed"):
            parse_bell_token(token)
    assert bell_scenario(6, 4).n_contexts == BELL_CONTEXT_LIMIT
    # A 26-observable cover of Bell shape has no token, since none parses.
    labels = [f"X{k}" + "p" * j for k in range(1, 14) for j in range(2)]
    wide = make_scenario(labels, [labels[0::2], labels[1::2]])
    assert bell_token(wide) is None


def test_section_index_roundtrip():
    for idx in range(8):
        assert section_index(section_values(idx, 3)) == idx
