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
    GlobalAssignment,
    Section,
    bell_scenario,
    bell_token,
    enumerate_global_assignments,
    enumerate_sections,
    make_scenario,
    parse_bell_token,
    polytope_dimension,
    projection,
    restrict,
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


def test_enumerate_sections_lexicographic():
    s = bell_scenario(2, 2)
    sections = enumerate_sections(s, 0)
    assert [sec.values for sec in sections] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(sec.domain == ("X1", "X2") for sec in sections)


def test_enumerate_sections_single_observable():
    s = make_scenario(["A"], [["A"]])
    assert [sec.values for sec in enumerate_sections(s, 0)] == [(0,), (1,)]


def test_enumerate_sections_three_observables_order():
    s = bell_scenario(3, 2)
    sections = enumerate_sections(s, 0)
    assert len(sections) == 8
    assert sections[0].values == (0, 0, 0)
    assert sections[-1].values == (1, 1, 1)


def test_enumerate_sections_bad_index():
    with pytest.raises(IndexOutOfRange):
        enumerate_sections(bell_scenario(2, 2), 4)


def test_enumerate_global_assignments_counts():
    assert len(enumerate_global_assignments(bell_scenario(3, 2))) == 64
    assert len(enumerate_global_assignments(bell_scenario(2, 2))) == 16
    single = make_scenario(["A"], [["A"]])
    assert [g.values for g in enumerate_global_assignments(single)] == [(0,), (1,)]


def test_enumerate_global_assignments_guard():
    labels = [f"Y{k}" for k in range(26)]  # bell_scenario refuses 26 observables itself
    s = make_scenario(labels, [labels[:13], labels[13:]])
    with pytest.raises(TooLarge):
        enumerate_global_assignments(s)


def test_restrict_projection():
    g = GlobalAssignment(OBS_22, (1, 0, 1, 0))
    assert restrict(g, ("X1", "X2")).values == (1, 1)
    assert restrict(g, OBS_22).values == g.values
    assert restrict(g, ()).values == ()


def test_restrict_target_order_is_respected():
    g = GlobalAssignment(OBS_22, (1, 0, 1, 0))
    assert restrict(g, ("X2", "X1")).values == (1, 1)
    assert restrict(g, ("X2p", "X1")).values == (0, 1)


def test_restrict_composes():
    g = GlobalAssignment(OBS_22, (1, 1, 0, 1))
    via = restrict(restrict(g, ("X1", "X2", "X2p")), ("X1", "X2p"))
    direct = restrict(g, ("X1", "X2p"))
    assert via == direct


def test_restrict_rejects_non_subset():
    section = Section(("X1",), (0,))
    with pytest.raises(NotASubset):
        restrict(section, ("X2",))


def test_projection_agrees_with_restrict():
    # Every ordered subset of every context, on bell-3-2 and bell-2-4.
    for s in (bell_scenario(3, 2), bell_scenario(2, 4)):
        for ctx in s.contexts:
            for k in range(len(ctx) + 1):
                for target in itertools.permutations(ctx, k):
                    table = projection(ctx, target)
                    assert len(table) == 1 << len(ctx)
                    for i, sub in enumerate(table):
                        section = Section(ctx, section_values(i, len(ctx)))
                        assert sub == section_index(restrict(section, target).values)


def test_projection_of_global_assignments_agrees_with_restrict():
    s = bell_scenario(3, 2)
    for ctx in s.contexts:
        table = projection(s.observables, ctx)
        for g in enumerate_global_assignments(s):
            assert table[section_index(g.values)] == section_index(restrict(g, ctx).values)


def test_projection_guards_fire_before_enumeration():
    with pytest.raises(NotASubset):
        projection(("X1", "X2"), ("X1p",))
    labels = tuple(f"Y{k}" for k in range(25))  # 2**25 sections
    with pytest.raises(TooLarge):
        projection(labels, labels[:1])


def test_scenario_from_dict_rejects_malformed_shapes():
    good = scenario_to_dict(bell_scenario(2, 2))
    for field, value in (("observables", 5), ("observables", [1, 2]), ("contexts", [5]),
                         ("contexts", "X1"), ("contexts", [["X1", ["X2"]]])):
        with pytest.raises(MalformedInput):
            scenario_from_dict(dict(good, **{field: value}))
    with pytest.raises(MalformedInput):
        scenario_from_dict([good])


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
    assert json.loads(json.dumps(payload)) == payload
    assert scenario_from_dict(payload) == s


def test_bell_tokens_roundtrip():
    assert parse_bell_token("bell-3-2-2") == bell_scenario(3, 2)
    assert parse_bell_token("bell-2-2") == bell_scenario(2, 2)
    assert bell_token(bell_scenario(3, 2)) == "bell-3-2-2"
    assert bell_token(make_scenario(["A", "B"], [["A", "B"]])) is None
    with pytest.raises(UnknownLabel):
        parse_bell_token("ring-2-2")
    with pytest.raises(TooLarge):
        parse_bell_token("bell-2-2-3")


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
