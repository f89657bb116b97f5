import itertools
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    cover_automorphisms,
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
    shown,
)

from _oracles import cover_automorphisms_bruteforce

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


def test_make_scenario_rejects_a_cover_with_no_contexts():
    with pytest.raises(CoverViolation, match="no contexts"):
        make_scenario([], [])


def test_make_scenario_rejects_context_key_separator_in_labels():
    # "A|B" as a label would give contexts [A, B] and [A|B] the same JSON key.
    with pytest.raises(MalformedInput, match="'\\|'"):
        make_scenario(["A", "B", "A|B"], [["A", "B"], ["A|B"]])
    with pytest.raises(MalformedInput):
        scenario_from_dict({"observables": ["X|"], "contexts": [["X|"]]})
    with pytest.raises(MalformedInput):
        make_scenario([1], [[1]])


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
        with pytest.raises(IndexOutOfRange, match=f"context index {c} not in 0..3"):
            s.context(c)
    # str() refuses an int of more than 4 300 digits; the message used to raise ValueError.
    for c in (10**5000, -10**5000):
        with pytest.raises(IndexOutOfRange, match="context index of 16610 bits not in 0..3"):
            s.context(c)


def test_context_index_must_be_an_int():
    # 2.0 used to raise a bare TypeError from the tuple lookup, True to read context 1.
    s = bell_scenario(2, 2)
    for c in (2.0, 1.5, True, "1", None):
        with pytest.raises(MalformedInput, match="context index must be an int"):
            s.context(c)
        with pytest.raises(MalformedInput, match="context index must be an int"):
            s.n_sections(c)


def test_shown_names_a_huge_int_by_its_size():
    assert shown(5) == "5" and shown(-(1 << 64) + 1) == str(-(1 << 64) + 1)
    assert shown(1 << 64) == "of 65 bits"
    assert shown(True) == "True" and shown(2.5) == "2.5"
    assert shown("x" * 100) == repr("x" * 100)[:40]
    assert shown((1 << 64, 0)) == repr((1 << 64, 0))
    assert shown([0, 10**5000]) == "list holding an int past 4 300 digits"


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


@st.composite
def covers(draw):
    """Antichain covers of up to 7 labels, with contexts and labels in drawn orders."""
    labels = [f"o{i}" for i in range(draw(st.integers(1, 7)))]
    full = (1 << len(labels)) - 1
    masks = set(draw(st.lists(st.integers(1, full), max_size=12)))
    masks = {m for m in masks if not any(m != o and m & o == m for o in masks)}
    covered = 0
    for m in masks:
        covered |= m
    masks |= {1 << i for i in range(len(labels)) if not (covered >> i) & 1}
    contexts = [
        draw(st.permutations([x for i, x in enumerate(labels) if (m >> i) & 1]))
        for m in sorted(masks)
    ]
    return make_scenario(draw(st.permutations(labels)), draw(st.permutations(contexts)))


@settings(max_examples=300, deadline=None)
@given(covers())
def test_overlaps_match_the_pairwise_definition(s):
    assert list(overlaps(s)) == _intersecting_pairs(s)


def generated_group(generators, m):
    """Every product of the context permutations ``generators`` on ``m`` contexts."""
    group = {tuple(range(m))}
    queue = list(group)
    for g in queue:
        for h in generators:
            product = tuple(h[g[c]] for c in range(m))
            if product not in group:
                group.add(product)
                queue.append(product)
    return group


def pr_box_covers(copies):
    """``copies`` disjoint (2,2) Bell covers, one pair of parties each."""
    observables, contexts = [], []
    for k in range(copies):
        a, b = [f"A{k}", f"A{k}p"], [f"B{k}", f"B{k}p"]
        observables += a + b
        contexts += [(x, y) for x in a for y in b]
    return make_scenario(observables, contexts)


@settings(max_examples=150, deadline=None)
@given(covers())
def test_cover_automorphisms_generate_the_brute_force_group(s):
    generators = cover_automorphisms(s)
    for perm in generators:
        assert sorted(perm) == list(range(s.n_contexts)) and perm != tuple(range(s.n_contexts))
        assert all(len(s.contexts[perm[c]]) == len(ctx) for c, ctx in enumerate(s.contexts))
    group = cover_automorphisms_bruteforce(s.observables, s.contexts)
    assert generated_group(generators, s.n_contexts) == group


def twin_blocks():
    """Four contexts of 12 labels in a ring, each pair of neighbours sharing 6 twins."""
    labels = [f"x{k}" for k in range(24)]
    return make_scenario(labels, [[labels[(6 * c + k) % 24] for k in range(12)] for c in range(4)])


@pytest.mark.parametrize("s, order", [
    (bell_scenario(2, 2), 8),
    (bell_scenario(3, 2), 48),  # 3! party orders times 2**3 setting swaps
    (bell_scenario(4, 2), 384),
    (bell_scenario(2, 4), 1152),  # 2 party orders times 4! * 4! setting orders
    (twin_blocks(), 8),  # the symmetries of the ring; swapping twins moves no context
])
def test_cover_automorphism_group_orders(s, order):
    assert len(generated_group(cover_automorphisms(s), s.n_contexts)) == order


@pytest.mark.parametrize("s", [bell_scenario(4, 2), bell_scenario(2, 4), pr_box_covers(4), twin_blocks()])
def test_cover_automorphism_search_never_lists_the_group(s):
    # The four PR-box covers have 8**4 * 4! = 98 304 automorphisms, and the
    # twin blocks 6!**4 * 8 relabellings.
    best = float("inf")
    for _ in range(3):
        cover_automorphisms.cache_clear()
        start = time.perf_counter()
        generators = cover_automorphisms(s)
        best = min(best, time.perf_counter() - start)
    assert 0 < len(generators) <= len(s.observables) ** 2
    assert best < 0.05


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


@pytest.mark.parametrize("outcomes", [2.0, True, False, "2", None, [2]])
def test_scenario_outcomes_must_be_an_int(outcomes):
    # 2.0 used to pass as 2 and True to raise TooLarge.
    payload = dict(scenario_to_dict(bell_scenario(2, 2)), outcomes=outcomes)
    with pytest.raises(MalformedInput, match="outcomes must be an int"):
        scenario_from_dict(payload)


@pytest.mark.parametrize("outcomes", [3, 1, 0, -2, 10**5000], ids=["3", "1", "0", "-2", "10**5000"])
def test_scenario_outcomes_other_than_two_are_too_large(outcomes):
    # 10**5000 used to escape as a bare ValueError from the message's f-string.
    payload = dict(scenario_to_dict(bell_scenario(2, 2)), outcomes=outcomes)
    with pytest.raises(TooLarge) as err:
        scenario_from_dict(payload)
    assert str(err.value).endswith(f"got outcomes={shown(outcomes)}")


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


@pytest.mark.parametrize("counts", [(2.0, 2), (2, "2"), (True, 2), (2, False), (None, 2)])
def test_bell_scenario_counts_must_be_ints(counts):
    with pytest.raises(MalformedInput, match="counts must be ints"):
        bell_scenario(*counts)


@pytest.mark.parametrize("counts", [(10**5000, 2), (2, 10**5000)])
def test_a_huge_bell_count_is_too_large_by_its_size(counts):
    with pytest.raises(TooLarge, match="of 16611 bits observables exceed"):
        bell_scenario(*counts)


@pytest.mark.parametrize(
    "token", ["bell-" + "9" * 5000 + "-2", "bell-2-" + "9" * 5000, "bell-2-2-" + "9" * 5000,
              "bell-0000000002-2"],
    ids=["parties", "settings", "outcomes", "leading-zeros"],
)
def test_a_long_bell_token_count_is_too_large_before_it_is_read(token):
    with pytest.raises(TooLarge, match="more than 9 digits"):
        parse_bell_token(token)
    assert parse_bell_token("bell-000000002-2") == bell_scenario(2, 2)


def test_section_index_roundtrip():
    for idx in range(8):
        assert section_index(section_values(idx, 3)) == idx
