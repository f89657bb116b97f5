import operator
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amcc import ratlp
from amcc.analysis import incidence_matrix
from amcc.catalog import pr_box
from amcc.construct import eight_param_family
from amcc.empirical import deterministic_model, mix
from amcc.errors import InternalConsistencyError, MalformedInput, ShapeMismatch
from amcc.ratlp import LinearProgram, LpStatus, maximize, solve_feasibility
from amcc.scenario import bell_scenario

from _generators import fraction_rows
from _oracles import DenseTableau, feasible_bruteforce, lp_bruteforce

F = Fraction
H = F(1, 2)


def sparse(rows):
    """Dense rows as LinearProgram rows: ``(column, coefficient)`` per nonzero entry."""
    return tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in rows)


def flatten(model):
    v = []
    for row in fraction_rows(model):
        v.extend(row)
    return v


def cf_program(model):
    """The noncontextual-fraction LP: max 1.d  s.t.  M d <= v, d >= 0."""
    n = len(model.scenario.observables)
    return LinearProgram(
        objective=(1,) * (1 << n), a_le=incidence_matrix(model.scenario), b_le=tuple(flatten(model))
    )


def assert_dual_certificate(lp, out):
    """Check ``out.dual`` in plain Fraction arithmetic: y >= 0 on <= rows,
    A^T y >= c and b.y == value, which proves ``out.value`` optimal."""
    rows = tuple(lp.a_eq) + tuple(lp.a_le)
    rhs = tuple(lp.b_eq) + tuple(lp.b_le)
    y = out.dual
    assert len(y) == len(rows)
    assert all(v >= 0 for v in y[len(lp.a_eq):])
    for j, c in enumerate(lp.objective):
        assert sum(F(dict(row).get(j, 0)) * v for row, v in zip(rows, y)) >= c
    assert sum(F(b) * v for b, v in zip(rhs, y)) == out.value


# CF 1/4; the simplex takes 31 pivots on it (52 under Bland's rule alone).
PIVOTING_POINT = (F(1, 4), F(1, 8), F(1, 16), F(3, 16), F(1, 8), F(1, 16), F(1, 8), F(1, 16))


def test_feasibility_identity_system():
    out = solve_feasibility(sparse(((1, 0), (0, 1))), (H, H), 2)
    assert out.status is LpStatus.FEASIBLE
    assert out.solution == (H, H)


def test_feasibility_contradictory_rows():
    out = solve_feasibility(sparse(((1,), (1,))), (F(1), F(0)), 1)
    assert out.status is LpStatus.INFEASIBLE


def test_feasibility_pr_incidence_infeasible():
    inc = incidence_matrix(bell_scenario(2, 2))
    out = solve_feasibility(inc, flatten(pr_box(0, 0, 0)), 16)
    assert out.status is LpStatus.INFEASIBLE


def test_feasibility_solution_satisfies_system_exactly():
    a = ((1, 1, 0), (0, 1, 2))
    b = (F(3, 4), F(1, 2))
    out = solve_feasibility(sparse(a), b, 3)
    assert out.status is LpStatus.FEASIBLE
    for row, target in zip(a, b):
        assert sum(F(x) * v for x, v in zip(row, out.solution)) == target
    assert all(v >= 0 for v in out.solution)


def test_maximize_simple_bound():
    out = maximize(LinearProgram(objective=(F(1),), a_le=sparse(((F(1),),)), b_le=(F(3, 4),)))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == F(3, 4)


def test_maximize_pr_box_mass_zero():
    lp = cf_program(pr_box(0, 0, 0))
    out = maximize(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 0
    # Presolve forces every column, so the whole dual comes from the forcing rows.
    assert_dual_certificate(lp, out)
    assert sum(b * v for b, v in zip(lp.b_le, out.dual)) == 0


def test_pr_local_mixture_dual_is_a_bell_inequality():
    local = deterministic_model(bell_scenario(2, 2), (0, 0, 0, 0))
    lp = cf_program(mix([pr_box(0, 0, 0), local], [H, H]))
    out = maximize(lp)
    assert out.value == H  # CF 1/2
    assert_dual_certificate(lp, out)
    assert sum(b * v for b, v in zip(lp.b_le, out.dual)) == H


def test_cf_dual_certifies_a_pivoting_point():
    lp = cf_program(eight_param_family(PIVOTING_POINT))
    out = maximize(lp)
    assert 0 < out.value < 1
    assert_dual_certificate(lp, out)


def test_early_stopped_simplex_fails_the_certificate(monkeypatch):
    # The primal after one pivot is feasible and matches its own objective
    # (a dense primal re-check accepts it); only the dual shows it is not
    # optimal.
    lp = cf_program(eight_param_family(PIVOTING_POINT))
    pivots = []
    real_pivot = ratlp._Tableau.pivot

    def counting_pivot(self, r, c, col):
        pivots.append((r, c))
        real_pivot(self, r, c, col)

    monkeypatch.setattr(ratlp._Tableau, "pivot", counting_pivot)
    maximize(lp)
    assert len(pivots) > 1
    monkeypatch.setattr(ratlp._Tableau, "pivot", real_pivot)

    def one_pivot(self):
        c = self._entering(False)
        col = self.column(c)
        self.pivot(self._leaving(col), c, col)
        return "optimal"

    monkeypatch.setattr(ratlp._Tableau, "run", one_pivot)
    with pytest.raises(InternalConsistencyError, match="certificate"):
        maximize(lp)


def _raise_first_nonzero(x):
    j = next(j for j, v in enumerate(x) if v)
    x[j] += 1


def _make_first_zero_negative(x):
    x[x.index(0)] = -1


@pytest.mark.parametrize("corrupt", [_raise_first_nonzero, _make_first_zero_negative])
def test_corrupted_primal_entry_raises(monkeypatch, corrupt):
    lp = cf_program(eight_param_family(PIVOTING_POINT))
    real_certify = ratlp._certify

    def corrupted(rows, kinds, cost, x, y, den, value):
        corrupt(x)
        real_certify(rows, kinds, cost, x, y, den, value)

    monkeypatch.setattr(ratlp, "_certify", corrupted)
    with pytest.raises(InternalConsistencyError, match="certificate"):
        maximize(lp)


EQ_AND_FRACTION_LP = LinearProgram(
    objective=(1, F(3, 2), 0),
    a_eq=sparse(((1, 1, 1),)),
    b_eq=(F(1),),
    a_le=sparse(((F(1, 3), 1, 0), (1, 0, F(2, 5)))),
    b_le=(F(1, 4), F(1, 2)),
)


@pytest.mark.parametrize(
    "lp", [cf_program(eight_param_family(PIVOTING_POINT)), EQ_AND_FRACTION_LP]
)
def test_certify_accepts_the_pair_maximize_returns(lp):
    out = maximize(lp)
    assert out.status is LpStatus.OPTIMAL
    assert ratlp.certify(lp, out.value, out.solution, out.dual) is None


def _bump(vector, k, delta=F(1, 1000)):
    return vector[:k] + (vector[k] + delta,) + vector[k + 1:]


@pytest.mark.parametrize("lp", [cf_program(eight_param_family(PIVOTING_POINT)), EQ_AND_FRACTION_LP])
def test_certify_rejects_a_perturbed_pair(lp):
    out = maximize(lp)
    x, y = out.solution, out.dual
    j = next(j for j, v in enumerate(x) if v)
    rhs = tuple(lp.b_eq) + tuple(lp.b_le)
    k = next(k for k, v in enumerate(y) if v and rhs[k])  # moving y_k moves b.y
    for args in (
        (out.value + F(1, 1000), x, y),
        (out.value, _bump(x, j), y),
        (out.value, x, _bump(y, k)),
        (out.value, x, _bump(y, k, -y[k])),
        (out.value, x[:-1], y),
        (out.value, x, y + (F(0),)),
    ):
        with pytest.raises(InternalConsistencyError, match="certificate"):
            ratlp.certify(lp, *args)


def test_maximize_deterministic_mass_one():
    s = bell_scenario(2, 2)
    inc = incidence_matrix(s)
    model = deterministic_model(s, (0, 1, 1, 0))
    lp = LinearProgram(objective=(1,) * 16, a_le=inc, b_le=tuple(flatten(model)))
    out = maximize(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 1
    # The optimum is the point mass on the generating assignment's column.
    assert sum(1 for v in out.solution if v != 0) == 1


def test_maximize_unbounded():
    out = maximize(LinearProgram(objective=(F(1), F(1))))
    assert out.status is LpStatus.UNBOUNDED


def test_maximize_with_equality_rows():
    # max x + y  s.t.  x + y + z = 1, x <= 1/4
    lp = LinearProgram(
        objective=(1, 1, 0),
        a_eq=sparse(((1, 1, 1),)),
        b_eq=(F(1),),
        a_le=sparse(((1, 0, 0),)),
        b_le=(F(1, 4),),
    )
    out = maximize(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 1


def test_maximize_infeasible():
    lp = LinearProgram(objective=(1,), a_eq=sparse(((1,), (1,))), b_eq=(F(1), F(2)))
    assert maximize(lp).status is LpStatus.INFEASIBLE


def test_redundant_equality_rows_are_harmless():
    # Duplicated and linearly dependent equality rows leave degenerate
    # artificials that must be driven out or dropped.
    lp = LinearProgram(
        objective=(1, 1),
        a_eq=sparse(((1, 1), (1, 1), (2, 2))),
        b_eq=(F(1), F(1), F(2)),
    )
    out = maximize(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 1
    assert sum(out.solution) == 1


def test_negative_rhs_rows_handled():
    # x >= 2 written as -x <= -2; minimize x via maximize -x.
    lp = LinearProgram(objective=(F(-1),), a_le=sparse(((F(-1),),)), b_le=(F(-2),))
    out = maximize(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == -2
    assert out.solution == (F(2),)


def test_shape_mismatch_raised():
    with pytest.raises(ShapeMismatch):
        LinearProgram(objective=(1, 1), a_le=sparse(((1, 0),)), b_le=(F(1), F(1)))
    with pytest.raises(ShapeMismatch):
        solve_feasibility(sparse(((1, 0),)), (F(1), F(1)), 2)


@pytest.mark.parametrize(
    "row",
    [
        ((0, 1), (2, 1)),           # column past the last one
        ((-1, 1), (0, 1)),          # negative column
        ((0, 1), (0, 2)),           # repeated column
        ((1, 1), (0, 1)),           # decreasing columns
        ((0, 1), 1),                # a bare number where a pair should be
        ((0, 1, 1),),               # a triple where a pair should be
    ],
)
def test_malformed_sparse_row_is_a_shape_mismatch(row):
    lp = LinearProgram(objective=(1, 1), a_le=(((0, 1), (1, 1)), row), b_le=(F(1), F(1)))
    with pytest.raises(ShapeMismatch):
        maximize(lp)
    with pytest.raises(ShapeMismatch):
        ratlp.certify(lp, F(1), (F(1), F(0)), (F(1), F(0)))


@pytest.mark.parametrize("bad", [0.1, Decimal("0.1"), "0.1", " 1/10 ", True, 0.0, None])
def test_lp_data_must_be_int_or_fraction(bad):
    # A coefficient of 0.1 used to be read as its binary value (optimum
    # 36028797018963968/3602879701896397, not 10); strings, Decimals and
    # bools were converted without a word.
    lp = LinearProgram(objective=(1,), a_le=(((0, F(1, 10)),),), b_le=(1,))
    for bad_lp in (
        replace(lp, a_le=(((0, bad),),)),
        replace(lp, objective=(bad,)),
        replace(lp, b_le=(bad,)),
    ):
        with pytest.raises(MalformedInput, match="LP data must be int or Fraction"):
            maximize(bad_lp)
    assert maximize(lp).value == 10
    # certify reads its value, primal and dual by the same rule: a float
    # used to raise AttributeError, and True was taken for 1.
    for value, solution, dual in ((bad, (10,), (10,)), (10, (bad,), (10,)), (10, (10,), (bad,))):
        with pytest.raises(MalformedInput, match="LP data must be int or Fraction"):
            ratlp.certify(lp, value, solution, dual)
    ratlp.certify(lp, 10, (10,), (F(10),))


@pytest.mark.parametrize(
    "exact, bad", [(F(1, 10), Decimal("0.1")), (F(1, 2), 0.5), (1, True), (F(3), 3.0)]
)
def test_lp_data_check_does_not_depend_on_the_row_cache(exact, bad):
    # The bad row equals a row already solved (True == 1, Decimal("0.1") ==
    # 1/10), and the cache is left as that solve filled it.
    lp = LinearProgram(objective=(1,), a_le=(((0, exact),),), b_le=(1,))
    assert maximize(lp).value == 1 / F(exact)
    with pytest.raises(MalformedInput, match="LP data must be int or Fraction"):
        maximize(replace(lp, a_le=(((0, bad),),)))
    with pytest.raises(MalformedInput, match="LP data must be int or Fraction"):
        ratlp.certify(replace(lp, a_le=(((0, bad),),)), 1 / F(exact), (1 / F(exact),), (1,))


def test_a_bool_column_index_is_refused_after_the_int_one_was_solved():
    two = LinearProgram(objective=(1, 1), a_le=(((1, 1),),), b_le=(1,))
    assert maximize(two).status is LpStatus.UNBOUNDED
    with pytest.raises(ShapeMismatch):
        maximize(replace(two, a_le=(((True, 1),),)))


def test_degenerate_cycling_instance_terminates():
    # Classic stalling setup (Beale-like): heavy degeneracy at the origin.
    lp = LinearProgram(
        objective=(F(3, 4), F(-150), F(1, 50), F(-6)),
        a_le=sparse((
            (F(1, 4), F(-60), F(-1, 25), F(9)),
            (F(1, 2), F(-90), F(-1, 50), F(3)),
            (F(0), F(0), F(1), F(0)),
        )),
        b_le=(F(0), F(0), F(1)),
    )
    out = maximize(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == F(1, 20)


@contextmanager
def pivot_cap(limit=100):
    """Fail at the ``limit``-th pivot of the block instead of looping on."""
    real_pivot = ratlp._Tableau.pivot
    count = 0

    def capped_pivot(self, r, c, col):
        nonlocal count
        count += 1
        assert count < limit, f"no optimum after {limit} pivots"
        real_pivot(self, r, c, col)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ratlp._Tableau, "pivot", capped_pivot)
        yield


# Dense LPs on which Dantzig's largest-coefficient rule cycles in textbook
# form (Chvatal, Linear Programming, 1983, p. 31; Hall and McKinnon, Math.
# Prog. 100, 133, 2004).  The solver scales each row to integers, so its
# path differs, but the degeneracy is the same.
@pytest.mark.parametrize("c, a, b, expected", [
    pytest.param(
        (10, -57, -9, -24),
        ((H, F(-11, 2), F(-5, 2), 9), (H, F(-3, 2), -H, 1), (1, 0, 0, 0)),
        (0, 0, 1),
        ("optimal", 1),  # bounded by x1 <= 1
        id="chvatal",
    ),
    pytest.param(
        (F(23, 10), F(43, 20), F(-271, 20), F(-2, 5)),
        ((F(2, 5), F(1, 5), F(-7, 5), F(-1, 5)), (F(-39, 5), F(-7, 5), F(39, 5), F(2, 5))),
        (0, 0),
        ("unbounded", None),  # a cone with an improving ray
        id="hall-mckinnon",
    ),
])
def test_textbook_cycling_instances_reach_the_bruteforce_optimum(c, a, b, expected):
    lp = LinearProgram(objective=c, a_le=sparse(a), b_le=b)
    with pivot_cap():
        out = maximize(lp)
    assert lp_bruteforce(c, (), (), a, b) == expected
    assert (out.status.value, out.value) == expected
    if out.status is LpStatus.OPTIMAL:
        assert_dual_certificate(lp, out)


positive_fracs = st.integers(1, 4).map(lambda n: F(n, 2))


# 1 switches to Bland's rule at every degenerate pivot, so these small
# programs run the fallback too.
@pytest.mark.parametrize("run", [1, ratlp.DEGENERATE_RUN])
@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_degenerate_programs_match_vertex_enumeration(run, n, m, data):
    # Zero right-hand sides put every row through the origin, so the first
    # vertex is degenerate; one positive row keeps the program bounded.
    a = [[data.draw(small_fracs) for _ in range(n)] for _ in range(m)]
    a.append([data.draw(positive_fracs) for _ in range(n)])
    b = [0] * m + [data.draw(st.integers(1, 2))]
    c = [data.draw(small_fracs) for _ in range(n)]
    lp = LinearProgram(objective=tuple(c), a_le=sparse(a), b_le=tuple(b))
    with pytest.MonkeyPatch.context() as patch, pivot_cap():
        patch.setattr(ratlp, "DEGENERATE_RUN", run)
        out = maximize(lp)
    assert lp_bruteforce(c, (), (), a, b) == ("optimal", out.value)
    assert_dual_certificate(lp, out)


def test_pivots_do_not_depend_on_how_the_solver_scales_a_row():
    # The CF LP of a bell-3-2 model that no outcome flip fixes, once with the
    # integer numerators as right-hand sides and once with the probabilities
    # (numerators over 12), which the solver scales to integers by 1, 2, 6
    # or 12 row by row.  A slack is priced in the program's own units, so both
    # take the same pivots to the same vertex, and contextual_fraction (which
    # passes numerators) reports the full LP's optimum.
    rows = ((6, 0, 0, 2, 0, 2, 2, 0),) + ((5, 1, 1, 1, 1, 1, 1, 1),) * 7
    a = incidence_matrix(bell_scenario(3, 2))
    runs = []
    real_pivot = ratlp._Tableau.pivot
    for scale in (1, F(1, 12)):
        pivots = []

        def recording_pivot(self, r, c, col):
            pivots.append((r, c))
            real_pivot(self, r, c, col)

        b = tuple(x * scale for row in rows for x in row)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ratlp._Tableau, "pivot", recording_pivot)
            out = maximize(LinearProgram(objective=(1,) * 64, a_le=a, b_le=b))
        runs.append((pivots, [x / scale for x in out.solution]))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) > 1


def test_determinism_identical_runs():
    inc = incidence_matrix(bell_scenario(2, 2))
    b = tuple(flatten(pr_box(1, 0, 1)))
    lp = LinearProgram(objective=(1,) * 16, a_le=inc, b_le=b)
    first = maximize(lp)
    second = maximize(lp)
    assert first == second


small_fracs = st.integers(-3, 3).map(lambda n: F(n, 2))
nonneg_fracs = st.integers(0, 6).map(lambda n: F(n, 3))


@settings(max_examples=500, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.data(),
)
def test_feasibility_matches_bruteforce_oracle(m, n, data):
    a = [
        [data.draw(small_fracs) for _ in range(n)]
        for _ in range(m)
    ]
    b = [data.draw(small_fracs) for _ in range(m)]
    out = solve_feasibility(sparse(a), b, n)
    witness = feasible_bruteforce(a, b)
    assert (out.status is LpStatus.FEASIBLE) == (witness is not None)
    if out.status is LpStatus.FEASIBLE:
        for row, target in zip(a, b):
            assert sum(x * v for x, v in zip(row, out.solution)) == target
        assert all(v >= 0 for v in out.solution)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_maximize_matches_vertex_enumeration(n, m, data):
    a = [[data.draw(small_fracs) for _ in range(n)] for _ in range(m)]
    b = [data.draw(nonneg_fracs) for _ in range(m)]
    # b >= 0 and a box row: the region is never empty and always bounded.
    a.append([F(1)] * n)
    b.append(F(4))
    c = [data.draw(small_fracs) for _ in range(n)]
    lp = LinearProgram(objective=tuple(c), a_le=sparse(a), b_le=tuple(b))
    out = maximize(lp)
    assert out.status is LpStatus.OPTIMAL
    assert lp_bruteforce(c, (), (), a, b) == ("optimal", out.value)
    assert_dual_certificate(lp, out)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.data())
def test_maximize_with_equalities_matches_split_oracle(n, data):
    # One equality row (possibly negative RHS, exercising the flip and
    # phase-one artificial paths) plus a bounding box; the oracle sees the
    # equality as a pair of opposing inequalities.
    eq_row = [data.draw(small_fracs) for _ in range(n)]
    eq_b = data.draw(small_fracs)
    c = [data.draw(small_fracs) for _ in range(n)]
    box_row = [F(1)] * n
    box_b = F(4)
    lp = LinearProgram(
        objective=tuple(c),
        a_eq=sparse((eq_row,)),
        b_eq=(eq_b,),
        a_le=sparse((box_row,)),
        b_le=(box_b,),
    )
    out = maximize(lp)
    a_split = [eq_row, [-x for x in eq_row], box_row]
    b_split = [eq_b, -eq_b, box_b]
    status, value = lp_bruteforce(c, (), (), a_split, b_split)
    assert (out.status.value, out.value) == (status, value)
    if status == "optimal":
        assert_dual_certificate(lp, out)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2), st.integers(0, 2), st.data())
def test_maximize_status_matches_standard_form_oracle(n, m_eq, m_le, data):
    # No box row: the region may be empty, bounded or unbounded, and equality
    # rows and negative right-hand sides send the solver through phase one.
    def rows(m):
        return [[data.draw(small_fracs) for _ in range(n)] for _ in range(m)]

    a_eq, a_le = rows(m_eq), rows(m_le)
    b_eq = [data.draw(small_fracs) for _ in range(m_eq)]
    b_le = [data.draw(small_fracs) for _ in range(m_le)]
    c = [data.draw(small_fracs) for _ in range(n)]
    lp = LinearProgram(tuple(c), sparse(a_eq), tuple(b_eq), sparse(a_le), tuple(b_le))
    out = maximize(lp)
    status, value = lp_bruteforce(c, a_eq, b_eq, a_le, b_le)
    assert (out.status.value, out.value) == (status, value)
    if status == "optimal":
        assert_dual_certificate(lp, out)


def _presolve_free_lp(rng):
    """``(n, c, a_eq, b_eq, a_le, b_le)``: dense integer rows that presolve leaves whole.

    Every row has a nonzero coefficient and a nonzero right-hand side, so no
    zero-RHS row forces a column and every row and column reaches the
    tableau.  Right-hand sides may be negative; the equality rows are at
    times followed by a redundant one (a multiple of one row, or the sum of
    two), and most programs are built around a nonnegative point, so phase
    one ends feasible and must drive out or drop the redundant row.
    """
    while True:
        n = rng.randint(1, 5)
        point = [rng.choice((0, 0, 1, 2, 3)) for _ in range(n)]
        around = rng.random() < 0.8

        def row():
            return [rng.choice((0, 0, 0, 1, 1, 2, -1, -3, 4)) for _ in range(n)]

        a_eq = [row() for _ in range(rng.randint(0, 3))]
        if a_eq and rng.random() < 0.6:
            k = rng.choice((-2, 1, 3))
            extra = [k * x for x in rng.choice(a_eq)]
            if len(a_eq) > 1 and rng.random() < 0.5:
                extra = [x + y for x, y in zip(a_eq[0], a_eq[1])]
            a_eq.append(extra)
        a_le = [row() for _ in range(rng.randint(0, 3))]
        b_eq = [
            sum(map(operator.mul, a, point)) if around else rng.choice((-3, -1, 2, 5))
            for a in a_eq
        ]
        b_le = [
            sum(map(operator.mul, a, point)) + rng.choice((0, 1, 2)) if around
            else rng.choice((-4, -1, 1, 3)) for a in a_le
        ]
        c = [rng.randint(-3, 3) for _ in range(n)]
        if all(any(a) for a in a_eq + a_le) and all(b_eq + b_le):
            return n, c, a_eq, b_eq, a_le, b_le


def _replay_against_dense_oracle(rng) -> Counter:
    """Solve a :func:`_presolve_free_lp`, replaying every tableau step on a dense oracle.

    After each objective and each pivot, every entry of the tableau, read at
    its current ``den``, must be the oracle's, and so must the kept row 0 on
    every priced column.  An artificial retired after phase one is no longer
    priced, so it is compared through the stored column it owns.  Returns
    what happened.
    """
    n, c, a_eq, b_eq, a_le, b_le = _presolve_free_lp(rng)
    lp = LinearProgram(tuple(c), sparse(a_eq), tuple(b_eq), sparse(a_le), tuple(b_le))
    oracle = DenseTableau.standard_form(n, a_eq, b_eq, a_le, b_le)
    # Artificial k is owned by the k-th equality or negated row.
    owner = [t for t, b in enumerate(b_eq + b_le) if t < len(b_eq) or b < 0]
    events = Counter()
    tableau = ratlp._Tableau
    real_pivot, real_negate, real_drop = tableau.pivot, tableau.negate, tableau.drop
    real_objective = ratlp._install_objective

    def agree(tab):
        assert tab.den == oracle.den and tab.basis == oracle.basis
        for j in range(len(oracle.rows[0]) - 1):
            if j < tab.n_cols:
                got = tab.column(j)
            else:
                got = tab.stored(owner[j - n - len(a_le)])
            assert got == [row[j] for row in oracle.rows], j
        assert tab.stored(-1) == [row[-1] for row in oracle.rows]
        assert tab.reduced == oracle.rows[0][:tab.n_cols], "kept row 0"

    def objective(tab, cost):
        real_objective(tab, cost)
        oracle.objective(cost)
        events["objective"] += 1
        agree(tab)

    def pivot(self, r, c, col):
        real_pivot(self, r, c, col)
        oracle.pivot(r, c)
        events["pivot", events["objective"]] += 1
        agree(self)
        # Wrong pricing keeps every entry right but can cycle.
        assert events["pivot", events["objective"]] < 100, "no optimum after 100 pivots"

    def negate(self, i):
        real_negate(self, i)
        oracle.negate(i)
        events["negate"] += 1

    def drop(self, i):
        real_drop(self, i)
        oracle.drop(i)
        events["drop"] += 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ratlp, "_install_objective", objective)
        patch.setattr(tableau, "pivot", pivot)
        patch.setattr(tableau, "negate", negate)
        patch.setattr(tableau, "drop", drop)
        events[maximize(lp).status] += 1
    return events


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_every_tableau_entry_matches_a_dense_oracle(seed):
    _replay_against_dense_oracle(random.Random(seed))


def test_the_dense_oracle_replay_catches_a_missed_row_0_update(monkeypatch):
    # The first pivot leaves the kept row 0 as it was before the pivot.
    real_pivot = ratlp._Tableau.pivot
    pivots = []

    def pivot_losing_its_row_0_update(self, r, c, col):
        before = self.reduced
        real_pivot(self, r, c, col)
        if not pivots:
            self.reduced = before
        pivots.append((r, c))

    monkeypatch.setattr(ratlp._Tableau, "pivot", pivot_losing_its_row_0_update)
    rng = random.Random(24)
    with pytest.raises(AssertionError, match="kept row 0"):
        for _ in range(150):
            _replay_against_dense_oracle(rng)
    assert len(pivots) == 1


def test_the_dense_oracle_replay_reaches_phase_one_drive_out_and_row_deletion():
    events = Counter()
    rng = random.Random(24)
    for _ in range(150):
        events += _replay_against_dense_oracle(rng)
    # Pivots under the phase-one objective (1) and under phase two's (2),
    # or under the only objective when no row needs an artificial (1 too).
    assert events["pivot", 1] and events["pivot", 2]
    assert events["negate"] and events["drop"]
    assert events[LpStatus.OPTIMAL] and events[LpStatus.INFEASIBLE]
