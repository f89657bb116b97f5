"""Property suites, each run with at least 500 generated cases.

Defined here (not named test_*) so the acceptance module can re-run them and
report one line per suite; test_properties.py re-exports them for pytest.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amcc import analysis
from amcc.analysis import (
    avn_certificate,
    classify,
    contextual_fraction,
    incidence_matrix,
    is_strongly_contextual,
)
from amcc.construct import (
    boolean_no_signaling,
    parity_consistent,
    parity_to_possibilistic,
)
from amcc.empirical import (
    PossibilisticModel,
    from_global_distribution,
    is_maximal_marginal,
    is_no_signaling,
    lift_uniform,
    marginal,
    mix,
    parse_rational,
    possibilistic_collapse,
    possibilistic_to_dict,
)
from amcc.errors import InternalConsistencyError, ShapeMismatch, SignalingDetected
from amcc.ratlp import LinearProgram, LpOutcome, LpStatus, maximize
from amcc.scenario import polytope_dimension, projection, section_index, section_values

from _generators import (
    flip_group,
    fraction_rows,
    mask_tuples,
    mixture_models_222,
    noisy_parity_lifts,
    ns_models_222,
    parity_systems,
    rational,
    refinable_models,
    support_patterns_222,
    symmetric_models,
)
from _oracles import (
    box_polytope_dimension,
    equitable_violation,
    incidence_bruteforce,
    proves_optimum,
)

F = Fraction
CASES = settings(max_examples=500, deadline=None)
LAMBDAS = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))


@CASES
@given(ns_models_222())
def check_cf_one_iff_strongly_contextual(model):
    """The LP value hits 1 exactly when the exhaustive support scan is empty."""
    cf = contextual_fraction(model)
    strong, witness = is_strongly_contextual(model)
    assert (cf == 1) == strong
    assert 0 <= cf <= 1
    if cf == 0:
        # The CF optimum is then a global distribution reproducing every row.
        part = classify(model).witness["noncontextual_part"]
        dist = {tuple(map(int, bits)): parse_rational(w) for bits, w in part.items()}
        assert fraction_rows(from_global_distribution(model.scenario, dist)) == fraction_rows(model)
    certified, _ = avn_certificate(model)
    assert certified == strong
    if witness is not None:
        # The witness really is compatible with every context's support.
        g = section_index(witness)
        for ctx, row in zip(model.scenario.contexts, fraction_rows(model)):
            assert row[projection(model.scenario.observables, ctx)[g]] > 0


@CASES
@given(parity_systems())
def check_parity_consistency_matches_satisfiability(ps):
    """GF(2) consistency of the system == satisfiability of its support model."""
    consistent, payload = parity_consistent(ps)
    pattern = parity_to_possibilistic(ps)
    strong, _ = is_strongly_contextual(pattern)
    assert consistent == (not strong)
    # Half-support patterns are possibilistically no-signaling and their
    # uniform lifts have uniform within-context marginals.
    assert boolean_no_signaling(pattern) == (True, None)
    assert is_maximal_marginal(lift_uniform(pattern))[0]
    if consistent:
        for c in range(ps.scenario.n_contexts):
            total = sum(
                payload[ps.scenario.observables.index(x)]
                for x in ps.scenario.contexts[c]
            )
            assert total % 2 == ps.parities[c]
    else:
        acc_mask = 0
        acc_parity = 0
        for idx in payload:
            acc_mask ^= ps.coefficient_mask(idx)
            acc_parity ^= ps.parities[idx]
        assert (acc_mask, acc_parity) == (0, 1)


@CASES
@given(ns_models_222())
def check_marginal_agreement_on_overlaps(model):
    """No-signaling models agree marginally on every context intersection."""
    assert is_no_signaling(model) == (True, None)
    s = model.scenario
    for a in range(s.n_contexts):
        for b in range(a + 1, s.n_contexts):
            overlap = tuple(
                x for x in s.observables
                if x in set(s.contexts[a]) & set(s.contexts[b])
            )
            if not overlap:
                continue
            ma = marginal(model, a, overlap)
            assert ma == marginal(model, b, overlap)
            assert sum(ma) == model.den


@CASES
@given(mixture_models_222(), mixture_models_222(), st.sampled_from(LAMBDAS))
def check_cf_convexity(a, b, lam):
    """CF of a mixture never exceeds the mixture of CFs."""
    mixed = mix([a, b], [lam, 1 - lam])
    assert contextual_fraction(mixed) <= lam * contextual_fraction(a) + (
        1 - lam
    ) * contextual_fraction(b)


@CASES
@given(support_patterns_222())
def check_possibilistic_roundtrip(pattern):
    """Collapsing the uniform lift returns the original support pattern.

    An asymmetric pattern's lift signals instead, and the witness then shows
    two different marginals on the contexts' overlap.
    """
    try:
        lifted = lift_uniform(pattern)
    except SignalingDetected as err:
        assert err.witness.marginal_a != err.witness.marginal_b
    else:
        assert possibilistic_collapse(lifted).masks == pattern.masks


@CASES
@given(mask_tuples())
def check_masks_fit_or_are_refused(drawn):
    """A possibilistic model refuses masks that do not fit, or spells each mask out exactly."""
    s, masks = drawn
    try:
        p = PossibilisticModel(s, masks)
    except ShapeMismatch:
        assert len(masks) != s.n_contexts or any(
            not 0 <= mask < 1 << s.n_sections(c) for c, mask in enumerate(masks)
        )
        return
    tables = possibilistic_to_dict(p)["tables"]
    rows = [tables["|".join(ctx)] for ctx in s.contexts]
    assert all(set(row) <= {0, 1} for row in rows)
    assert tuple(sum(bit << sec for sec, bit in enumerate(row)) for row in rows) == masks


@CASES
@given(st.integers(1, 3), st.integers(1, 3))
def check_polytope_dimension_formula(n_parties, settings_count):
    """The closed-form dimension matches the affine rank of the constraint system."""
    formula = polytope_dimension(
        [settings_count] * n_parties, [[2] * settings_count] * n_parties
    )
    assert formula == box_polytope_dimension(n_parties, settings_count)
    assert polytope_dimension([2, 2], [[2, 2]] * 2) == 8
    assert polytope_dimension([2, 2, 2], [[2, 2]] * 3) == 26


def _full_cf_optimum(model):
    """``maximize`` on the full contextual-fraction LP, one column per global assignment.

    The right-hand side is the model's numerators, so the optimum, read as
    a rational, is ``den`` times 1 - CF.
    """
    return rational(maximize(LinearProgram(
        objective=(1,) * (1 << len(model.scenario.observables)),
        a_le=incidence_matrix(model.scenario),
        b_le=tuple(x for row in model.numerators for x in row),
    )))


def _refined_lp(model):
    """``(quotient, b, partition, reduced)`` at any size.

    The orbit LP's quotient, its right-hand side, its coarsest equitable
    partition ``(row_class, column_class)`` and the reduced LP on it.
    """
    s = model.scenario
    group = analysis._flip_group(s, tuple(map(analysis._stabilizer, model.numerators)))
    quotient = analysis._quotient(s, group)
    rows = [x for row in model.numerators for x in row]
    b = tuple(rows[r] for r in quotient.lp.row_reps)
    pattern = tuple(analysis._classes(b))
    partition = analysis._equitable_partition(quotient.lp, pattern)
    return quotient, b, partition, analysis._refined(s, group, pattern)


def classes_of(lift, count):
    """The class of each global assignment or full row, from a lift getter over ``count`` classes."""
    return tuple(lift(range(count)))


_incidence = lru_cache(maxsize=None)(incidence_bruteforce)


@CASES
@given(symmetric_models())
def check_orbit_cf_matches_full_lp(model):
    """The CF solved on flip orbits equals the full LP's, and the flip group is found exactly.

    Below CF 1, the noncontextual part ``classify`` reports sums to 1 - CF,
    fits under the model in every row of the incidence oracle's full LP, is
    constant on every coset of the flip group and, when the orbit LP is
    large enough to be refined, on every column class of its refinement.
    """
    full = _full_cf_optimum(model)
    cf = contextual_fraction(model)
    assert cf == 1 - full.value / model.den
    group = flip_group(model)
    found = analysis._flip_group(model.scenario, tuple(map(analysis._stabilizer, model.numerators)))
    assert [h for h in range(found.bit_length()) if (found >> h) & 1] == group
    if cf == 1:
        return
    s = model.scenario
    n = len(s.observables)
    part = classify(model).witness["noncontextual_part"]
    weight = [parse_rational(part.get("".join(map(str, section_values(g, n))), "0"))
              for g in range(1 << n)]
    assert sum(weight) == 1 - cf
    entries = [x for row in fraction_rows(model) for x in row]
    for row, x in zip(_incidence(s.observables, s.contexts), entries, strict=True):
        assert sum(weight[g] for g, _ in row) <= x
    assert all(weight[g ^ h] == weight[g] for g in range(1 << n) for h in group)
    quotient, _, _, reduced = _refined_lp(model)
    if sum(map(len, quotient.lp.a_le)) >= analysis.REFINE_MIN_ENTRIES:
        by_class = {}
        for g, cls in enumerate(classes_of(reduced.lift_columns, len(reduced.objective))):
            by_class.setdefault(cls, set()).add(weight[g])
        assert all(len(weights) == 1 for weights in by_class.values())


@CASES
@given(refinable_models())
def check_refined_cf_matches_orbit_lp(model):
    """On orbit LPs above the refinement gate the partition is equitable and keeps the optimum.

    The equitable-partition oracle checks the partition on the orbit LP,
    and the CF solved on it equals ``maximize`` on the unreduced orbit LP.
    """
    quotient, b, (row_class, column_class), reduced = _refined_lp(model)
    assume(sum(map(len, quotient.lp.a_le)) >= analysis.REFINE_MIN_ENTRIES)
    lp = quotient.lp
    assert equitable_violation(lp.a_le, b, lp.objective, row_class, column_class) is None
    assert len(reduced.a_le) == len(set(row_class)) <= len(b)
    assert len(reduced.objective) == len(set(column_class)) <= len(lp.objective)
    # The reduced LP lifts straight to every global assignment and full row.
    assert sum(reduced.objective) == sum(lp.objective) == 1 << len(model.scenario.observables)
    assert sum(reduced.row_split) == sum(lp.row_split) == sum(map(len, model.numerators))
    orbit_of_row = classes_of(lp.lift_rows, len(lp.a_le))
    assert classes_of(reduced.lift_rows, len(reduced.a_le)) == tuple(row_class[k] for k in orbit_of_row)
    unreduced = rational(maximize(LinearProgram(objective=lp.objective, a_le=lp.a_le, b_le=b)))
    assert contextual_fraction(model) == 1 - unreduced.value / model.den


def _merged(classes, pick):
    """``classes`` with two of its classes, chosen by ``pick``, made one; None if there is one class."""
    count = max(classes) + 1
    if count < 2:
        return None
    a = pick % count
    b = (a + 1 + (pick // count) % (count - 1)) % count
    return tuple(analysis._classes([a if cls == b else cls for cls in classes]))


@CASES
@given(refinable_models(), st.integers(0, 1 << 16), st.booleans())
def check_merged_partition_never_moves_cf(model, pick, rows):
    """A partition with two row or two column classes merged fails the certificate or keeps the CF.

    The merged partition is usually not equitable, so its reduced LP's
    optimum lifts to a point the full-LP certificate rejects; it must never
    be certified with another value.
    """
    quotient, _, (row_class, column_class), _ = _refined_lp(model)
    assume(sum(map(len, quotient.lp.a_le)) >= analysis.REFINE_MIN_ENTRIES)
    cf = contextual_fraction(model)
    if rows:
        row_class = _merged(row_class, pick)
    else:
        column_class = _merged(column_class, pick)
    if row_class is None or column_class is None:
        return
    lp = quotient.lp
    wrong = analysis._on_classes(model.scenario, lp.lift_rows(row_class), lp.lift_columns(column_class))
    with mock.patch.object(analysis, "_refined", lambda s, group, pattern: wrong):
        try:
            assert contextual_fraction(model) == cf
        except InternalConsistencyError as exc:
            assert "expected an optimum" in str(exc) or "certificate" in str(exc)


def _unshared_row_duals(quotient):
    return replace(quotient, lp=replace(quotient.lp, row_split=(1,) * len(quotient.lp.row_split)))


def _unscaled_orbit_columns(quotient):
    return replace(quotient, lp=replace(quotient.lp, objective=(1,) * len(quotient.lp.objective)))


@CASES
@given(noisy_parity_lifts(min_noise=1))
def check_orbit_lift_mutations_fail_certificate(model):
    """A lift that drops the 1/|R| dual share or the |H| column weight fails the full-LP check.

    Every model drawn has CF < 1, so the lifted objective is nonzero and
    either mistake breaks the primal-dual equalities.
    """
    real = analysis._quotient
    for mutate in (_unshared_row_duals, _unscaled_orbit_columns):
        with mock.patch.object(analysis, "_quotient", lambda s, group: mutate(real(s, group))):
            with pytest.raises(InternalConsistencyError, match="certificate"):
                contextual_fraction(model)


class Lift(NamedTuple):
    """What the quotient certificate takes, on the orbit LP: integers over the denominator ``d``.

    ``weights[j]`` is the weight of coset ``j``, ``shares[k]`` the dual of
    each full row of orbit ``k`` and ``value`` the optimum.
    """

    weights: tuple
    shares: tuple
    d: int
    value: int


def lift_inputs(model, flip_group=None):
    """``(group, quotient, lift)``: the flip group found and the lift certificate's inputs.

    The certificate itself is not run.  ``flip_group``, when given, replaces
    the flip group found for the model.
    """
    seen = []
    real = analysis._flip_group

    def group_of(s, stabilizers):
        seen.append(real(s, stabilizers) if flip_group is None else flip_group)
        return seen[-1]

    def capture(m, quotient, x, y, d, v):
        least = {}  # coset -> its least assignment, in coset order
        for g, j in enumerate(classes_of(quotient.lp.lift_columns, len(quotient.lp.objective))):
            least.setdefault(j, g)
        weights = tuple(x[g] for g in least.values())
        seen.extend((quotient, Lift(weights, tuple(y[r] for r in quotient.lp.row_reps), d, v)))

    with mock.patch.object(analysis, "_certify_lift", capture), \
            mock.patch.object(analysis, "_flip_group", group_of):
        contextual_fraction(model)
    return tuple(seen)


def lifted(quotient, lift):
    """``(x, y, d, value)``: ``lift`` on every global assignment and full row, as the certificate takes it."""
    lp = quotient.lp
    return lp.lift_columns(lift.weights), lp.lift_rows(lift.shares), lift.d, lift.value


def outcome(quotient, lift):
    """The orbit-LP optimum that the CF lifts to ``lift``: each orbit dual is its share times the orbit size.

    Its denominator is ``lift.d``; the CF lifts it over a multiple of that,
    which is the same pair.
    """
    return LpOutcome(
        LpStatus.OPTIMAL,
        lift.value,
        tuple(lift.weights),
        tuple(y * n for y, n in zip(lift.shares, quotient.lp.row_split)),
        lift.d,
    )


def quotient_accepts(model, quotient, lift):
    """Whether the quotient certificate accepts the lifted pair."""
    try:
        analysis._certify_lift(model, quotient, *lifted(quotient, lift))
    except InternalConsistencyError as exc:
        assert "quotient certificate" in str(exc)
        return False
    return True


def full_lp_accepts(model, quotient, lift):
    """Whether the Fraction oracle accepts the lifted pair as an optimum of the full CF LP.

    The LP's rows come from the incidence oracle and its right-hand side is
    the model's numerators, as in the quotient certificate.
    """
    s = model.scenario
    x, y, d, _ = lifted(quotient, lift)
    solution = [F(w, d) for w in x]
    dual = [F(u, d) for u in y]
    return proves_optimum(
        (1,) * len(solution), (), (), _incidence(s.observables, s.contexts),
        [x for row in model.numerators for x in row], F(lift.value, lift.d), solution, dual,
    )


def finer(lift, n):
    """``lift`` over ``n`` times its denominator: the same pair."""
    return Lift(tuple(w * n for w in lift.weights), tuple(y * n for y in lift.shares),
                lift.d * n, lift.value * n)


def nudged(lift, field, k, step):
    """``lift`` with entry ``k`` of its ``weights`` or ``shares`` moved by the rational ``step``.

    The denominator grows as far as the moved entry needs.
    """
    delta = F(step) * lift.d
    lift = finer(lift, delta.denominator)
    entries = list(getattr(lift, field))
    entries[k] += delta.numerator
    return lift._replace(**{field: tuple(entries)})


def revalued(lift, value):
    """``lift`` claiming the rational optimum ``value``."""
    v = F(value) * lift.d
    return finer(lift, v.denominator)._replace(value=v.numerator)


def scaled(lift, k):
    """``lift`` with its value, primal and dual all multiplied by the rational ``k``."""
    k = F(k)
    return Lift(tuple(w * k.numerator for w in lift.weights),
                tuple(y * k.numerator for y in lift.shares),
                lift.d * k.denominator, lift.value * k.numerator)


STEP = F(1, 64)


def wrong_pairs(model, quotient, lift):
    """Lifted orbit optima that prove nothing, each failing the check it names.

    Every coset has ``order`` members, and orbit ``k`` adds
    ``b_k * size_k * share_k`` to the dual objective, ``b_k`` the
    right-hand side at its representative row and ``size_k`` its size.
    Steps are rationals; the denominator grows to hold them.

    * Objectives: one weight, or one share with ``b_k > 0``, moved by
      ``STEP`` either way.
    * Primal sign: ``STEP`` of weight moved onto another coset from the
      first coset of weight 0; both objectives hold.
    * Dual sign: ``t`` added to every share of the first context and taken
      from every share of the last; each column meets one row of each, so
      no dual row or objective moves, and ``t`` exceeds every share.
    * Primal rows: coset ``j`` given ``STEP`` more weight and the first
      share with ``b_k > 0`` raised to match, for each ``j``.  The dual
      stays feasible and the value exceeds the optimum, so a row through
      ``j`` overflows.
    * Dual rows: each orbit dual with ``b_k > 0`` lowered and the heaviest
      coset lowered to match, with a positive optimum.  The primal stays
      feasible and the value falls below the optimum, so a column meeting
      orbit ``k`` falls short.
    * Both: with a positive optimum, the whole pair doubled or halved.
    """
    context_of = [c for c, row in enumerate(model.numerators) for _ in row]
    rows = [x for row in model.numerators for x in row]
    b = [rows[r] for r in quotient.lp.row_reps]
    size = quotient.lp.row_split
    order = quotient.lp.objective[0]
    contexts = [context_of[r] for r in quotient.lp.row_reps]
    nonzero = [k for k in range(len(b)) if b[k]]
    weights = [F(w, lift.d) for w in lift.weights]
    value = F(lift.value, lift.d)
    for step in (STEP, -STEP):
        for j in range(len(weights)):
            yield nudged(lift, "weights", j, step)
        for k in nonzero:
            yield nudged(lift, "shares", k, step)
    if 0 in lift.weights:
        empty = lift.weights.index(0)
        for j in range(len(weights)):
            if j != empty:
                yield nudged(nudged(lift, "weights", empty, -STEP), "weights", j, STEP)
    t = max(lift.shares) + lift.d
    first, last = contexts[0], contexts[-1]
    yield lift._replace(shares=tuple(
        y + t if c == first else y - t if c == last else y
        for y, c in zip(lift.shares, contexts)
    ))
    k = nonzero[0]
    raised = nudged(lift, "shares", k, STEP * order / (b[k] * size[k]))
    for j in range(len(weights)):
        yield revalued(nudged(raised, "weights", j, STEP), value + STEP * order)
    if lift.value:
        heavy = max(range(len(weights)), key=weights.__getitem__)
        for k in nonzero:
            if lift.shares[k]:
                s = min(F(lift.shares[k] * size[k], lift.d), STEP,
                        weights[heavy] * order / b[k])
                lowered = nudged(lift, "weights", heavy, -s * b[k] / order)
                yield revalued(nudged(lowered, "shares", k, -s / size[k]), value - s * b[k])
        yield scaled(lift, 2)
        yield scaled(lift, F(1, 2))


@CASES
@given(symmetric_models(), st.integers(0, 1 << 16))
def check_quotient_certificate_matches_full_lp(model, pick):
    """The quotient certificate accepts the lifted optimum and only what the full-LP oracle accepts.

    Both checks reject every pair of :func:`wrong_pairs`.  Adding a flip
    outside H to the group makes a generator that does not fix the model,
    which the quotient check rejects.
    """
    group, quotient, lift = lift_inputs(model)
    assert quotient_accepts(model, quotient, lift)
    assert full_lp_accepts(model, quotient, lift)
    wrong = list(wrong_pairs(model, quotient, lift))
    bad = wrong[pick % len(wrong)]
    assert not quotient_accepts(model, quotient, bad)
    assert not full_lp_accepts(model, quotient, bad)

    n = len(model.scenario.observables)
    h = pick % (1 << n)
    if (group >> h) & 1:
        return
    wider = group | sum(1 << (g ^ h) for g in range(group.bit_length()) if (group >> g) & 1)
    _, quotient, lift = lift_inputs(model, flip_group=wider)
    with pytest.raises(InternalConsistencyError, match="does not fix the model"):
        analysis._certify_lift(model, quotient, *lifted(quotient, lift))


ALL_SUITES = (
    ("cf=1 iff strongly contextual", check_cf_one_iff_strongly_contextual),
    ("parity consistency iff CSP satisfiable", check_parity_consistency_matches_satisfiability),
    ("marginal agreement on overlaps", check_marginal_agreement_on_overlaps),
    ("CF convexity under mixtures", check_cf_convexity),
    ("collapse of uniform lift is identity", check_possibilistic_roundtrip),
    ("polytope dimension formula", check_polytope_dimension_formula),
)
