import operator
import random
import re
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

from _generators import fraction_rows, integer_program, maximize_as_written, random_lp, rational
from _oracles import DenseTableau, feasible_bruteforce, lp_bruteforce, proves_optimum

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


def numerators(model):
    """The model's integer numerators, context by context: the CF LP's right-hand side over ``den``."""
    return tuple(x for row in model.numerators for x in row)


def cf_program(model):
    """The noncontextual-fraction LP written with probabilities: max 1.d  s.t.  M d <= v, d >= 0.

    ``maximize`` takes it through :func:`integer_program` (or
    :func:`maximize_as_written`); ``contextual_fraction`` passes the numerators.
    """
    n = len(model.scenario.observables)
    return LinearProgram(
        objective=(1,) * (1 << n), a_le=incidence_matrix(model.scenario), b_le=tuple(flatten(model))
    )


def certified(lp, value, solution, dual):
    """Whether the Fraction oracle accepts ``solution`` and ``dual`` as a proof that ``value`` is optimal."""
    return proves_optimum(lp.objective, lp.a_eq, lp.b_eq, lp.a_le, lp.b_le, value, solution, dual)


def assert_certified(lp, out):
    assert certified(lp, out.value, out.solution, out.dual)


# CF 1/4; the simplex takes 31 pivots on its CF LP over the numerators (52
# under Bland's rule alone).
PIVOTING_POINT = (F(1, 4), F(1, 8), F(1, 16), F(3, 16), F(1, 8), F(1, 16), F(1, 8), F(1, 16))
PIVOTING_MODEL = eight_param_family(PIVOTING_POINT)
PIVOTING_LP = LinearProgram(
    objective=(1,) * 64,
    a_le=incidence_matrix(PIVOTING_MODEL.scenario),
    b_le=numerators(PIVOTING_MODEL),
)


def test_feasibility_identity_system():
    out = rational(solve_feasibility(sparse(((2, 0), (0, 2))), (1, 1), 2))
    assert out.status is LpStatus.FEASIBLE
    assert out.solution == (H, H)


def test_feasibility_contradictory_rows():
    out = solve_feasibility(sparse(((1,), (1,))), (1, 0), 1)
    assert out.status is LpStatus.INFEASIBLE


def test_feasibility_pr_incidence_infeasible():
    inc = incidence_matrix(bell_scenario(2, 2))
    out = solve_feasibility(inc, numerators(pr_box(0, 0, 0)), 16)
    assert out.status is LpStatus.INFEASIBLE


def test_feasibility_solution_satisfies_system_exactly():
    a = ((4, 4, 0), (0, 2, 4))
    b = (3, 1)
    out = rational(solve_feasibility(sparse(a), b, 3))
    assert out.status is LpStatus.FEASIBLE
    for row, target in zip(a, b):
        assert sum(F(x) * v for x, v in zip(row, out.solution)) == target
    assert all(v >= 0 for v in out.solution)


def test_maximize_simple_bound():
    out = rational(maximize(LinearProgram(objective=(1,), a_le=sparse(((4,),)), b_le=(3,))))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == F(3, 4)


def test_maximize_pr_box_mass_zero():
    lp = cf_program(pr_box(0, 0, 0))
    out = maximize_as_written(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 0
    # Presolve forces every column, so the whole dual comes from the forcing rows.
    assert_certified(lp, out)
    assert sum(b * v for b, v in zip(lp.b_le, out.dual)) == 0


def test_pr_local_mixture_dual_is_a_bell_inequality():
    local = deterministic_model(bell_scenario(2, 2), (0, 0, 0, 0))
    lp = cf_program(mix([pr_box(0, 0, 0), local], [H, H]))
    out = maximize_as_written(lp)
    assert out.value == H  # CF 1/2
    assert_certified(lp, out)
    assert sum(b * v for b, v in zip(lp.b_le, out.dual)) == H


def test_cf_dual_certifies_a_pivoting_point():
    lp = cf_program(PIVOTING_MODEL)
    out = maximize_as_written(lp)
    assert 0 < out.value < 1
    assert_certified(lp, out)


def test_early_stopped_simplex_fails_the_certificate(monkeypatch):
    # The primal after one pivot is feasible and matches its own objective
    # (a dense primal re-check accepts it); only the dual shows it is not
    # optimal.
    lp = PIVOTING_LP
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
    lp = PIVOTING_LP
    real_certify = ratlp._certify

    def corrupted(rows, kinds, cost, x, y, den, value):
        corrupt(x)
        real_certify(rows, kinds, cost, x, y, den, value)

    monkeypatch.setattr(ratlp, "_certify", corrupted)
    with pytest.raises(InternalConsistencyError, match="certificate"):
        maximize(lp)


EQ_LP = LinearProgram(
    objective=(2, 3, 0),
    a_eq=sparse(((1, 1, 1),)),
    b_eq=(1,),
    a_le=sparse(((4, 12, 0), (10, 0, 4))),
    b_le=(3, 5),
)


# The Fraction oracle of tests/_oracles.py is the full-LP certificate: it
# accepts the pair maximize returns and refuses every perturbation of it.
@pytest.mark.parametrize("lp", [PIVOTING_LP, EQ_LP])
def test_certify_accepts_the_pair_maximize_returns(lp):
    out = rational(maximize(lp))
    assert out.status is LpStatus.OPTIMAL
    assert certified(lp, out.value, out.solution, out.dual)


def _bump(vector, k, delta=F(1, 1000)):
    return vector[:k] + (vector[k] + delta,) + vector[k + 1:]


@pytest.mark.parametrize("lp", [PIVOTING_LP, EQ_LP])
def test_certify_rejects_a_perturbed_pair(lp):
    out = rational(maximize(lp))
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
        assert not certified(lp, *args)


def test_outcomes_are_int_numerators_over_a_positive_den():
    # The solver answers with what its tableau holds: an OPTIMAL outcome's
    # value, solution and dual, and a FEASIBLE one's witness, are ints over
    # one den > 0.  The seeded programs reach every status, and their
    # equality rows alone give feasibility systems of either verdict.
    statuses = Counter()
    pr = LinearProgram(
        objective=(1,) * 16, a_le=incidence_matrix(bell_scenario(2, 2)), b_le=numerators(pr_box(0, 0, 0))
    )
    lps = [PIVOTING_LP, EQ_LP, pr]
    lps += [integer_program(random_lp(random.Random(seed)))[0] for seed in range(600)]
    for lp in lps:
        n = len(lp.objective)
        out = maximize(lp)
        feasible = solve_feasibility(lp.a_eq, lp.b_eq, n)
        statuses[out.status] += 1
        statuses[feasible.status] += 1
        for got, rows in ((out, len(lp.a_eq) + len(lp.a_le)), (feasible, None)):
            if got.status in (LpStatus.OPTIMAL, LpStatus.FEASIBLE):
                assert type(got.den) is int and got.den > 0
                assert len(got.solution) == n
                assert all(type(v) is int for v in got.solution)
            if got.status is LpStatus.OPTIMAL:
                assert type(got.value) is int and len(got.dual) == rows
                assert all(type(v) is int for v in got.dual)
            else:
                assert got.value is None and got.dual is None
    assert statuses == {
        LpStatus.OPTIMAL: 224, LpStatus.UNBOUNDED: 192, LpStatus.FEASIBLE: 448, LpStatus.INFEASIBLE: 342,
    }


def test_maximize_deterministic_mass_one():
    s = bell_scenario(2, 2)
    inc = incidence_matrix(s)
    model = deterministic_model(s, (0, 1, 1, 0))
    lp = LinearProgram(objective=(1,) * 16, a_le=inc, b_le=numerators(model))
    out = rational(maximize(lp))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 1
    # The optimum is the point mass on the generating assignment's column.
    assert sum(1 for v in out.solution if v != 0) == 1


def test_maximize_unbounded():
    out = maximize(LinearProgram(objective=(1, 1)))
    assert out.status is LpStatus.UNBOUNDED


def test_maximize_with_equality_rows():
    # max x + y  s.t.  x + y + z = 4, x <= 1
    lp = LinearProgram(
        objective=(1, 1, 0),
        a_eq=sparse(((1, 1, 1),)),
        b_eq=(4,),
        a_le=sparse(((1, 0, 0),)),
        b_le=(1,),
    )
    out = rational(maximize(lp))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 4


def test_maximize_infeasible():
    lp = LinearProgram(objective=(1,), a_eq=sparse(((1,), (1,))), b_eq=(1, 2))
    assert maximize(lp).status is LpStatus.INFEASIBLE


def test_redundant_equality_rows_are_harmless():
    # Duplicated and linearly dependent equality rows leave degenerate
    # artificials that must be driven out or dropped.
    lp = LinearProgram(
        objective=(1, 1),
        a_eq=sparse(((1, 1), (1, 1), (2, 2))),
        b_eq=(1, 1, 2),
    )
    out = rational(maximize(lp))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 1
    assert sum(out.solution) == 1


def test_negative_rhs_rows_handled():
    # x >= 2 written as -x <= -2; minimize x via maximize -x.
    lp = LinearProgram(objective=(-1,), a_le=sparse(((-1,),)), b_le=(-2,))
    out = rational(maximize(lp))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == -2
    assert out.solution == (2,)


def test_shape_mismatch_raised():
    with pytest.raises(ShapeMismatch):
        LinearProgram(objective=(1, 1), a_le=sparse(((1, 0),)), b_le=(1, 1))
    with pytest.raises(ShapeMismatch):
        solve_feasibility(sparse(((1, 0),)), (1, 1), 2)


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
    lp = LinearProgram(objective=(1, 1), a_le=(((0, 1), (1, 1)), row), b_le=(1, 1))
    same_error(ShapeMismatch, lambda: maximize(lp), lambda: ratlp.checked_rows(lp.a_le, 2))


def same_error(error, *calls):
    """Each call raises ``error``, all with one message."""
    messages = set()
    for call in calls:
        with pytest.raises(error) as raised:
            call()
        messages.add(str(raised.value))
    assert len(messages) == 1, messages


@pytest.mark.parametrize("row", [[[0, 1]], ((0, [1]),), [{0: 1}]])
@pytest.mark.parametrize("kind", ["a_le", "a_eq"])
def test_row_entry_holding_a_list_or_dict_is_a_shape_mismatch(kind, row):
    # An entry that is a list or a dict is no (column, coefficient) pair,
    # and is named; a pair whose coefficient is a list is refused as every
    # coefficient that is not an int is.
    lp = LinearProgram(objective=(1, 1), **{kind: (row,), "b" + kind[1:]: (1,)})
    if type(row[0]) is tuple:
        error, message = MalformedInput, "LP data must be int, got [1]"
    else:
        error, message = ShapeMismatch, f"row entry {row[0]!r} "
    with pytest.raises(error, match=re.escape(message)):
        maximize(lp)


def test_checked_rows_drop_zero_coefficients_and_keep_the_pairs():
    pair = (1, 2)
    rows = ratlp.checked_rows([((0, 0), pair), [(0, 5), (2, 0)], ()], 3)
    assert rows == (((1, 2),), ((0, 5),), ())
    assert rows[0][0] is pair
    lp = LinearProgram(objective=(1, 1, 0), a_le=rows, b_le=(4, 1, 0))
    assert rational(maximize(lp)).value == F(11, 5)


def test_checked_row_past_the_last_column_is_a_shape_mismatch():
    # The row was checked over 3 columns; a 2-column program reads its last
    # column again and names the entry.
    rows = ratlp.checked_rows([((0, 1), (2, 1))], 3)
    assert rational(maximize(LinearProgram(objective=(1, 0, 1), a_le=rows, b_le=(1,)))).value == 1
    two = LinearProgram(objective=(1, 1), a_le=rows, b_le=(1,))
    with pytest.raises(ShapeMismatch, match=re.escape("row entry (2, 1) ")):
        maximize(two)


@pytest.mark.parametrize("bad", [0.1, Decimal("0.1"), "0.1", " 1/10 ", True, 0.0, None])
def test_lp_data_must_be_int_or_fraction(bad):
    # A coefficient of 0.1 used to be read as its binary value (optimum
    # 36028797018963968/3602879701896397, not 10); strings, Decimals and
    # bools were converted without a word.  No Fraction passes either (see
    # test_a_fraction_anywhere_in_a_program_is_refused).
    lp = LinearProgram(objective=(1,), a_le=(((0, 1),),), b_le=(10,))
    bad_rows = replace(lp, a_le=(((0, bad),),))
    same_error(
        MalformedInput, lambda: maximize(bad_rows), lambda: ratlp.checked_rows(bad_rows.a_le, 1)
    )
    for bad_lp in (bad_rows, replace(lp, objective=(bad,)), replace(lp, b_le=(bad,))):
        with pytest.raises(MalformedInput, match="LP data must be int"):
            maximize(bad_lp)
    assert rational(maximize(lp)).value == 10


PLACES = ("objective", "a_eq", "b_eq", "a_le", "b_le")


@pytest.mark.parametrize("bad", [F(3), F(1, 2), F(10**5000 + 1, 3)], ids=["3", "1/2", "huge"])
@pytest.mark.parametrize("place", PLACES)
def test_a_fraction_anywhere_in_a_program_is_refused(place, bad):
    # An integral Fraction too: a program is integers or nothing.  The
    # message names a Fraction past 4 300 digits by its size, where repr
    # would raise ValueError.
    lp = LinearProgram(
        objective=(1, 1), a_eq=(((0, 1), (1, -1)),), b_eq=(0,), a_le=(((0, 1), (1, 1)),), b_le=(4,)
    )
    assert rational(maximize(lp)).value == 4
    if place == "objective":
        bad_lp = replace(lp, objective=(1, bad))
    elif place.startswith("a_"):
        bad_lp = replace(lp, **{place: (((0, 1), (1, bad)),)})
    else:
        bad_lp = replace(lp, **{place: (bad,)})
    with pytest.raises(MalformedInput, match="LP data must be int"):
        maximize(bad_lp)
    if place in ("a_eq", "b_eq"):
        with pytest.raises(MalformedInput, match="LP data must be int"):
            solve_feasibility(bad_lp.a_eq, bad_lp.b_eq, 2)


@pytest.mark.parametrize("exact, bad", [(3, Decimal(3)), (2, 2.0), (1, True), (3, F(3))])
def test_lp_data_check_does_not_depend_on_the_row_cache(exact, bad):
    # The bad row equals a row already solved (True == 1, Fraction(3) == 3):
    # a check that remembered rows by equality would let it through.
    lp = LinearProgram(objective=(1,), a_le=(((0, exact),),), b_le=(1,))
    assert rational(maximize(lp)).value == F(1, exact)
    with pytest.raises(MalformedInput, match="LP data must be int"):
        maximize(replace(lp, a_le=(((0, bad),),)))


def test_a_bool_column_index_is_refused_after_the_int_one_was_solved():
    two = LinearProgram(objective=(1, 1), a_le=(((1, 1),),), b_le=(1,))
    assert maximize(two).status is LpStatus.UNBOUNDED
    with pytest.raises(ShapeMismatch):
        maximize(replace(two, a_le=(((True, 1),),)))


def test_degenerate_cycling_instance_terminates():
    # Classic stalling setup (Beale-like): heavy degeneracy at the origin.
    # Beale's objective and first row are written times 100, his second row
    # times 50, so the optimum is 100 times his 1/20.
    lp = LinearProgram(
        objective=(75, -15000, 2, -600),
        a_le=sparse((
            (25, -6000, -4, 900),
            (25, -4500, -1, 150),
            (0, 0, 1, 0),
        )),
        b_le=(0, 0, 1),
    )
    out = rational(maximize(lp))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 5


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
# Prog. 100, 133, 2004), written in integers: Chvatal's first two rows times
# 2, Hall and McKinnon's rows times 5 and their objective times 20.  A slack
# is then priced in other units, so the path differs, but the degeneracy is
# the same.
@pytest.mark.parametrize("c, a, b, expected", [
    pytest.param(
        (10, -57, -9, -24),
        ((1, -11, -5, 18), (1, -3, -1, 2), (1, 0, 0, 0)),
        (0, 0, 1),
        ("optimal", 1),  # bounded by x1 <= 1
        id="chvatal",
    ),
    pytest.param(
        (46, 43, -271, -8),
        ((2, 1, -7, -1), (-39, -7, 39, 2)),
        (0, 0),
        ("unbounded", None),  # a cone with an improving ray
        id="hall-mckinnon",
    ),
])
def test_textbook_cycling_instances_reach_the_bruteforce_optimum(c, a, b, expected):
    lp = LinearProgram(objective=c, a_le=sparse(a), b_le=b)
    with pivot_cap():
        out = rational(maximize(lp))
    assert lp_bruteforce(c, (), (), a, b) == expected
    assert (out.status.value, out.value) == expected
    if out.status is LpStatus.OPTIMAL:
        assert_certified(lp, out)


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
        out = maximize_as_written(lp)
    assert lp_bruteforce(c, (), (), a, b) == ("optimal", out.value)
    assert_certified(lp, out)


def _scaled_rhs(lp, t):
    return replace(lp, b_eq=tuple(t * b for b in lp.b_eq), b_le=tuple(t * b for b in lp.b_le))


def test_right_hand_sides_times_12_keep_the_pivots_and_the_duals():
    # The CF LP of a bell-3-2 model that no outcome flip fixes, with the
    # integer numerators over 12 as right-hand sides and with 12 times them.
    # Neither the entering rule nor the ratio test's order depends on a
    # positive factor on b, so both take the same pivots to the same basis:
    # the dual is the same and the primal and the value are 12 times as large.
    rows = ((6, 0, 0, 2, 0, 2, 2, 0),) + ((5, 1, 1, 1, 1, 1, 1, 1),) * 7
    lp = LinearProgram(
        objective=(1,) * 64, a_le=incidence_matrix(bell_scenario(3, 2)),
        b_le=tuple(x for row in rows for x in row),
    )
    runs = []
    real_pivot = ratlp._Tableau.pivot
    for t in (1, 12):
        pivots = []

        def recording_pivot(self, r, c, col):
            pivots.append((r, c))
            real_pivot(self, r, c, col)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ratlp._Tableau, "pivot", recording_pivot)
            runs.append((pivots, rational(maximize(_scaled_rhs(lp, t)))))
    (pivots, out), (pivots_12, out_12) = runs
    assert pivots_12 == pivots and len(pivots) > 1
    assert out_12.dual == out.dual
    assert out_12.solution == tuple(12 * x for x in out.solution)
    assert out_12.value == 12 * out.value


def test_right_hand_sides_times_7_and_12_keep_every_dual():
    # The integer forms of seeded random programs, many of them with rows
    # that presolve drops for forcing columns to zero: their duals are
    # raised to cover those columns, in units of the final tableau
    # denominator, which a factor on b does not move.
    optimal = raised = 0
    real_raise = ratlp._raise_forced_duals
    changed = []

    def spying_raise(rows, forcing, y, cost, den):
        before = list(y)
        real_raise(rows, forcing, y, cost, den)
        changed.append(y != before)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ratlp, "_raise_forced_duals", spying_raise)
        for seed in range(600):
            lp = integer_program(random_lp(random.Random(seed)))[0]
            changed.clear()
            out = rational(maximize(lp))
            for t in (7, 12):
                scaled = rational(maximize(_scaled_rhs(lp, t)))
                assert scaled.status is out.status, seed
                if out.status is LpStatus.OPTIMAL:
                    assert scaled.dual == out.dual, seed
                    assert scaled.solution == tuple(t * x for x in out.solution), seed
                    assert scaled.value == t * out.value, seed
            if out.status is LpStatus.OPTIMAL:
                optimal += 1
                raised += changed[0]
    assert (optimal, raised) == (221, 35)


def test_determinism_identical_runs():
    inc = incidence_matrix(bell_scenario(2, 2))
    b = numerators(pr_box(1, 0, 1))
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
    program = integer_program(LinearProgram((0,) * n, sparse(a), tuple(b)))[0]
    out = rational(solve_feasibility(program.a_eq, program.b_eq, n))
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
    out = maximize_as_written(lp)
    assert out.status is LpStatus.OPTIMAL
    assert lp_bruteforce(c, (), (), a, b) == ("optimal", out.value)
    assert_certified(lp, out)


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
    out = maximize_as_written(lp)
    a_split = [eq_row, [-x for x in eq_row], box_row]
    b_split = [eq_b, -eq_b, box_b]
    status, value = lp_bruteforce(c, (), (), a_split, b_split)
    assert (out.status.value, out.value) == (status, value)
    if status == "optimal":
        assert_certified(lp, out)


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
    out = maximize_as_written(lp)
    status, value = lp_bruteforce(c, a_eq, b_eq, a_le, b_le)
    assert (out.status.value, out.value) == (status, value)
    if status == "optimal":
        assert_certified(lp, out)


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
