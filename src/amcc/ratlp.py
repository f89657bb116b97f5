"""Exact linear programming over the rationals.

Two-phase primal simplex with Bland's anti-cycling pivot rule.  The tableau
is kept integral ("fraction-free" pivoting: all entries share one positive
denominator, updated by the previous pivot value), which avoids per-cell gcd
work and is an order of magnitude faster than a Fraction tableau while
staying exact.  Inputs and outputs are ``fractions.Fraction``.

A presolve pass exploits the structure of probability systems: a row with
right-hand side 0 whose coefficients are all nonnegative forces every
positively-weighted variable in it to zero.  Applied to incidence systems
this eliminates all columns through zero-probability sections, which is what
makes strongly contextual instances resolve without any pivoting.

All choices (presolve order, entering and leaving variables) are index-
deterministic: identical inputs produce identical pivot sequences and
identical solutions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import ShapeMismatch

ZERO = Fraction(0)


class LpStatus(enum.Enum):
    FEASIBLE = "feasible"
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpOutcome:
    """Solver verdict; ``solution`` satisfies all constraints exactly when present."""

    status: LpStatus
    value: Optional[Fraction] = None
    solution: Optional[tuple[Fraction, ...]] = None


@dataclass(frozen=True)
class LinearProgram:
    """maximize c.x  subject to  A_eq x = b_eq,  A_le x <= b_le,  x >= 0."""

    objective: tuple
    a_eq: tuple = ()
    b_eq: tuple = ()
    a_le: tuple = ()
    b_le: tuple = ()

    def __post_init__(self):
        n = len(self.objective)
        if len(self.a_eq) != len(self.b_eq):
            raise ShapeMismatch("A_eq row count differs from b_eq length")
        if len(self.a_le) != len(self.b_le):
            raise ShapeMismatch("A_le row count differs from b_le length")
        for row in tuple(self.a_eq) + tuple(self.a_le):
            if len(row) != n:
                raise ShapeMismatch(
                    f"constraint row has {len(row)} entries, objective has {n}"
                )


def _presolve(n, eq_rows, eq_rhs, le_rows, le_rhs):
    """Force variables to zero via nonnegative zero-RHS rows; drop vacuous rows.

    Returns (kept column indices, reduced rows, reduced rhs, reduced kinds)
    or None when a row became unsatisfiable (certain infeasibility).
    Kinds are "eq" / "le".
    """
    rows = [list(r) for r in eq_rows] + [list(r) for r in le_rows]
    rhs = list(eq_rhs) + list(le_rhs)
    kinds = ["eq"] * len(eq_rows) + ["le"] * len(le_rows)

    forced = [False] * n
    changed = True
    while changed:
        changed = False
        for row, b, kind in zip(rows, rhs, kinds):
            if b != 0:
                continue
            live = [(j, a) for j, a in enumerate(row) if a != 0 and not forced[j]]
            signs = {1 if a > 0 else -1 for _, a in live}
            if not live or len(signs) > 1:
                continue
            if signs == {-1} and kind == "le":
                continue  # sum of nonpositive terms <= 0 is vacuous
            for j, _ in live:
                forced[j] = True
                changed = True

    kept = [j for j in range(n) if not forced[j]]
    out_rows, out_rhs, out_kinds = [], [], []
    for row, b, kind in zip(rows, rhs, kinds):
        reduced = [row[j] for j in kept]
        if any(a != 0 for a in reduced):
            out_rows.append(reduced)
            out_rhs.append(b)
            out_kinds.append(kind)
            continue
        # All live coefficients vanished: the row must hold on its own.
        if kind == "eq" and b != 0:
            return None
        if kind == "le" and b < 0:
            return None
    return kept, out_rows, out_rhs, out_kinds


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


class _Tableau:
    """Integer simplex tableau with a shared positive denominator.

    The true tableau is ``rows / den``; row 0 holds the negated reduced
    costs and the current objective value in its last cell.
    """

    def __init__(self, rows, basis, den=1):
        self.rows = rows          # list of int lists; rows[0] is the objective row
        self.basis = basis        # basis[i] = column basic in constraint row i (1-based rows)
        self.den = den
        self.dead = set()         # columns barred from entering (retired artificials)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) - 1

    def pivot(self, r: int, c: int) -> None:
        """Pivot constraint row ``r`` (1-based) on column ``c``; entry must be > 0."""
        rows, den = self.rows, self.den
        prow = rows[r]
        piv = prow[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f == 0:
                if den != 1:
                    rows[i] = [x * piv // den for x in row]
                else:
                    rows[i] = [x * piv for x in row]
            else:
                rows[i] = [(x * piv - f * p) // den for x, p in zip(row, prow)]
        self.den = piv
        self.basis[r - 1] = c

    def _entering(self) -> Optional[int]:
        row0 = self.rows[0]
        for j in range(self.n_cols):
            if j not in self.dead and row0[j] < 0:
                return j
        return None

    def _leaving(self, c: int) -> Optional[int]:
        best = None  # (num, den, basis var, row)
        for i in range(1, len(self.rows)):
            a = self.rows[i][c]
            if a <= 0:
                continue
            b = self.rows[i][-1]
            if best is None:
                better = True
            else:
                cmp = b * best[1] - best[0] * a  # ratio b/a vs best
                better = cmp < 0 or (cmp == 0 and self.basis[i - 1] < best[2])
            if better:
                best = (b, a, self.basis[i - 1], i)
        return None if best is None else best[3]

    def run(self) -> str:
        """Bland iteration until "optimal" or "unbounded"."""
        while True:
            c = self._entering()
            if c is None:
                return "optimal"
            r = self._leaving(c)
            if r is None:
                return "unbounded"
            self.pivot(r, c)

    def objective_value(self) -> Fraction:
        return Fraction(self.rows[0][-1], self.den)


def _scale_to_int(row: Sequence, rhs) -> tuple[list[int], int]:
    denom = rhs.denominator
    for a in row:
        denom = _lcm(denom, a.denominator)
    return [int(a * denom) for a in row], int(rhs * denom)


def _build_tableau(n, rows, rhs, kinds):
    """Integer tableau with slack/surplus/artificial columns and a feasible basis.

    Returns (tableau, artificial columns, column count) with no objective row
    installed yet (row 0 is a placeholder of zeros).
    """
    int_rows, int_rhs = [], []
    for row, b in zip(rows, rhs):
        r, v = _scale_to_int([Fraction(a) for a in row], Fraction(b))
        if v < 0:
            r = [-a for a in r]
            v = -v
            flipped = True
        else:
            flipped = False
        int_rows.append((r, v, flipped))

    n_slack = sum(1 for (_, _, fl), kind in zip(int_rows, kinds) if kind == "le")
    slack_base = n
    art_base = n + n_slack
    n_art = 0
    specs = []
    si = 0
    for (r, v, flipped), kind in zip(int_rows, kinds):
        slack = None
        art = None
        if kind == "le":
            slack = slack_base + si
            si += 1
            if flipped:  # became a >= row: surplus plus artificial
                art = art_base + n_art
                n_art += 1
        else:
            art = art_base + n_art
            n_art += 1
        specs.append((r, v, slack, -1 if (kind == "le" and flipped) else 1, art))

    n_cols = art_base + n_art
    tab_rows = [[0] * (n_cols + 1)]
    basis = []
    for r, v, slack, slack_sign, art in specs:
        row = list(r) + [0] * (n_cols - n) + [v]
        if slack is not None:
            row[slack] = slack_sign
        if art is not None:
            row[art] = 1
            basis.append(art)
        else:
            basis.append(slack)
        tab_rows.append(row)
    arts = list(range(art_base, n_cols))
    return _Tableau(tab_rows, basis), arts, n_cols


def _install_phase1(tab: _Tableau, arts) -> None:
    art_rows = [i for i in range(1, len(tab.rows)) if tab.basis[i - 1] in arts]
    row0 = [0] * (tab.n_cols + 1)
    for i in art_rows:
        for j in range(tab.n_cols + 1):
            row0[j] -= tab.rows[i][j]
    for a in arts:
        row0[a] = 0
    tab.rows[0] = row0


def _install_phase2(tab: _Tableau, objective_int: Sequence[int]) -> None:
    n_cols = tab.n_cols
    den = tab.den
    cost = {j: objective_int[j] for j in range(len(objective_int))}
    row0 = [0] * (n_cols + 1)
    for j in range(len(objective_int)):
        row0[j] = -objective_int[j] * den
    for i in range(1, len(tab.rows)):
        cb = cost.get(tab.basis[i - 1], 0)
        if cb:
            for j in range(n_cols + 1):
                row0[j] += cb * tab.rows[i][j]
    tab.rows[0] = row0


def _drive_out_artificials(tab: _Tableau, arts) -> None:
    arts = set(arts)
    i = 1
    while i < len(tab.rows):
        col = tab.basis[i - 1]
        if col not in arts:
            i += 1
            continue
        pivot_col = None
        for j in range(tab.n_cols):
            if j not in arts and tab.rows[i][j] != 0:
                pivot_col = j
                break
        if pivot_col is None:
            del tab.rows[i]          # redundant constraint
            del tab.basis[i - 1]
            continue
        if tab.rows[i][pivot_col] < 0:
            tab.rows[i] = [-x for x in tab.rows[i]]
        tab.pivot(i, pivot_col)
        i += 1
    tab.dead |= arts


def _extract(tab: _Tableau, n: int, kept) -> tuple[Fraction, ...]:
    values = {col: ZERO for col in range(len(kept))}
    for i in range(1, len(tab.rows)):
        col = tab.basis[i - 1]
        if col < len(kept):
            values[col] = Fraction(tab.rows[i][-1], tab.den)
    x = [ZERO] * n
    for local, j in enumerate(kept):
        x[j] = values[local]
    return tuple(x)


def _verify(x, lp: LinearProgram, value: Fraction) -> None:
    for row, b in zip(lp.a_eq, lp.b_eq):
        if sum(a * v for a, v in zip(row, x)) != b:
            raise AssertionError("solver returned a solution violating an equality row")
    for row, b in zip(lp.a_le, lp.b_le):
        if sum(a * v for a, v in zip(row, x)) > b:
            raise AssertionError("solver returned a solution violating an inequality row")
    if any(v < 0 for v in x):
        raise AssertionError("solver returned a negative component")
    if sum(Fraction(c) * v for c, v in zip(lp.objective, x)) != value:
        raise AssertionError("objective value does not match returned solution")


def maximize(lp: LinearProgram) -> LpOutcome:
    """Maximize exactly; OPTIMAL outcomes carry the optimum and a solution.

    Presolve, then phase one on the artificial columns when any row needs
    one, then phase two on the objective.
    """
    n = len(lp.objective)
    pre = _presolve(n, lp.a_eq, lp.b_eq, lp.a_le, lp.b_le)
    if pre is None:
        return LpOutcome(LpStatus.INFEASIBLE)
    kept, rows, rhs, kinds = pre

    tab, arts, _ = _build_tableau(len(kept), rows, rhs, kinds)
    if arts:
        _install_phase1(tab, arts)
        tab.run()  # cannot be unbounded: phase-1 objective is bounded by 0
        if tab.rows[0][-1] != 0:
            return LpOutcome(LpStatus.INFEASIBLE)
        _drive_out_artificials(tab, arts)

    scale = 1
    for j in kept:
        scale = _lcm(scale, Fraction(lp.objective[j]).denominator)
    objective_int = [int(Fraction(lp.objective[j]) * scale) for j in kept]
    _install_phase2(tab, objective_int)
    if tab.run() == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED)
    value = tab.objective_value() / scale
    solution = _extract(tab, n, kept)
    _verify(solution, lp, value)
    return LpOutcome(LpStatus.OPTIMAL, value, solution)


def solve_feasibility(a: Sequence[Sequence], b: Sequence) -> LpOutcome:
    """Decide A x = b, x >= 0 exactly: :func:`maximize` with a zero objective.

    FEASIBLE outcomes carry an exact witness; INFEASIBLE means the phase-one
    optimum is strictly positive, i.e. no nonnegative solution exists.
    """
    n = len(a[0]) if a else 0
    out = maximize(LinearProgram(objective=(0,) * n, a_eq=tuple(a), b_eq=tuple(b)))
    if out.status is LpStatus.OPTIMAL:
        return LpOutcome(LpStatus.FEASIBLE, None, out.solution)
    return out
