"""Exact linear programming on integer programs.

A program has a dense objective, which fixes the column count, and sparse
constraint rows of ``(column, coefficient)`` pairs (see :class:`LinearProgram`).
Every objective entry, coefficient and right-hand side is an ``int``;
anything else, a ``Fraction`` included, is refused.  :func:`checked_rows` is
the one check of a row, and a row it returned carries the check in its type:
:func:`maximize` walks only the other rows, so the rows of a program built
once and solved often (``analysis``'s reduced CF LPs) are checked once, when
built.  The optimum comes back as it ends in the tableau: ``int``
numerators over one positive ``den``.

Two-phase primal simplex that enters on the largest coefficient (the most
negative row-0 entry, lowest index among equals) and falls back to Bland's
rule after ``DEGENERATE_RUN`` consecutive degenerate pivots, until the next
nondegenerate one.  That terminates: each nondegenerate pivot strictly
raises the objective, so no basis repeats across them, and Bland's rule
cannot cycle within a degenerate run.  The tableau
is kept integral ("fraction-free" pivoting: all entries share one positive
denominator, updated by the previous pivot value), which avoids per-cell gcd
work and is an order of magnitude faster than a Fraction tableau while
staying exact.  It is kept in revised form: only ``den * B^-1``, the
simplex multipliers ``den * pi`` (``pi = c_B B^-1``) and the right-hand side
are stored, by column, with row 0 of every priced column: ``den`` times its
negated reduced cost ``pi . A_j - c_j``.  Row 0 is priced once per
objective, through a copy of A kept row by row, and each pivot updates it
from the pivot row of ``den * B^-1``, which is sparse, times that copy.  Any
other column is computed from its sparse initial column when it enters:
every column, owned or not, is one getter over the owned positions with its
coefficients.  The artificials leave the priced columns after phase one.
Each stored column keeps the denominator it was last written
at: a pivot only rescales a column that is zero in the pivot row, and those
rescales telescope, so a pivot rewrites just the columns its pivot row
touches and a stale column is scaled when it is read.  Every entry is the
one the full tableau would hold (see :class:`_Tableau`).

A presolve pass exploits the structure of probability systems: a row with
right-hand side 0 whose coefficients are all nonnegative forces every
positively-weighted variable in it to zero.  Applied to incidence systems
this eliminates all columns through zero-probability sections, which is what
makes strongly contextual instances resolve without any pivoting.

Every optimum is certified before it is returned.  The primal ``x`` is read
from the final basis and the dual ``y`` from the final multipliers ``pi``,
and one exact check confirms ``x >= 0``, ``A_eq x = b_eq``, ``A_le x <= b_le``,
``y >= 0`` on the ``<=`` rows, ``A^T y >= c`` and ``c.x = b.y = value``; by
weak duality that proves ``x`` optimal.  The check runs in integers, on
``x`` and ``y`` as numerators over the final tableau denominator, so it
touches only nonzero coefficients.  For the contextual-fraction LP ``y`` is
the generalised Bell inequality whose violation equals the CF.  A failed
check raises ``InternalConsistencyError``.

All choices (presolve order, entering and leaving variables) are index-
deterministic: identical inputs produce identical pivot sequences and
identical solutions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from operator import itemgetter
from typing import Optional, Sequence

from .errors import InternalConsistencyError, MalformedInput, ShapeMismatch
from .scenario import sequence_getter, shown

#: Consecutive degenerate pivots after which the simplex enters on Bland's
#: rule until its next nondegenerate pivot (see :meth:`_Tableau.run`).
DEGENERATE_RUN = 10


class LpStatus(enum.Enum):
    FEASIBLE = "feasible"
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpOutcome:
    """Solver verdict; OPTIMAL outcomes carry a certified primal-dual pair.

    ``value``, every entry of ``solution`` and every entry of ``dual`` is an
    ``int`` numerator over ``den > 0``: the optimum is ``value / den``.
    ``solution`` satisfies all constraints exactly when present.  ``dual``
    has one entry per constraint row, equality rows first, then ``<=`` rows:
    it is nonnegative on the ``<=`` rows, ``A^T dual >= objective`` in every
    column, and ``b . dual == value``.  A FEASIBLE outcome carries
    ``solution`` and ``den`` only.
    """

    status: LpStatus
    value: Optional[int] = None
    solution: Optional[tuple[int, ...]] = None
    dual: Optional[tuple[int, ...]] = None
    den: Optional[int] = None


@dataclass(frozen=True)
class LinearProgram:
    """maximize c.x  subject to  A_eq x = b_eq,  A_le x <= b_le,  x >= 0.

    ``c`` is dense; each row of A is a tuple of ``(column, coefficient)``
    pairs, columns strictly increasing below ``len(c)``; omitted ones are 0.
    Every entry of ``c``, coefficient and right-hand side is an ``int``
    (:func:`maximize` refuses anything else).
    """

    objective: tuple
    a_eq: tuple = ()
    b_eq: tuple = ()
    a_le: tuple = ()
    b_le: tuple = ()

    def __post_init__(self):
        if len(self.a_eq) != len(self.b_eq):
            raise ShapeMismatch("A_eq row count differs from b_eq length")
        if len(self.a_le) != len(self.b_le):
            raise ShapeMismatch("A_le row count differs from b_le length")


def _exact(x):
    """``x`` itself if it is an int (not a bool), else MalformedInput.

    A Fraction, a float, a Decimal or a string is never converted: no
    binary fraction or parsed text enters a program, and no row is scaled.
    """
    if type(x) is int:
        return x
    raise MalformedInput(f"LP data must be int, got {shown(x)}")


class _Row(tuple):
    """A sparse row that passed :func:`checked_rows`: its pairs, none with coefficient 0."""

    __slots__ = ()


def checked_rows(rows, n: int) -> tuple[_Row, ...]:
    """Each sparse row of ``rows`` checked over ``n`` columns, its 0 coefficients dropped.

    Raises ShapeMismatch unless every row is ``(column, coefficient)`` pairs
    with columns strictly increasing below ``n``, and MalformedInput when a
    coefficient is not an int (:func:`_exact`).  Each row comes back as a
    private tuple type, which :func:`_int_program` trusts while its last
    column fits the program.
    """
    out = []
    for row in rows:
        entries = []
        last = -1
        for entry in row:
            if not (type(entry) is tuple and len(entry) == 2
                    and type(entry[0]) is int and last < entry[0] < n):
                raise ShapeMismatch(f"row entry {entry!r} is not a (column, coefficient) "
                                    f"pair with column in {last + 1}..{n - 1}")
            last, a = entry
            if _exact(a):
                entries.append(entry)
        out.append(_Row(entries))
    return tuple(out)


def _int_program(lp: LinearProgram):
    """``(rows, kinds, cost)``: the program, each of its numbers checked to be an int.

    ``rows`` are ``(entries, b)`` pairs, the row as :func:`checked_rows`
    returns it and the right-hand side, equality rows first, and ``kinds``
    their "eq" / "le" kinds; ``cost`` is the objective as a list.  A row
    ``checked_rows`` returned is walked again only when its last column is
    past the objective's, and then fails there.
    """
    n = len(lp.objective)
    kinds = ["eq"] * len(lp.a_eq) + ["le"] * len(lp.a_le)
    rows = []
    for row, b in zip(tuple(lp.a_eq) + tuple(lp.a_le), tuple(lp.b_eq) + tuple(lp.b_le)):
        if not (type(row) is _Row and (not row or row[-1][0] < n)):
            (row,) = checked_rows((row,), n)
        rows.append((row, _exact(b)))
    return rows, kinds, list(map(_exact, lp.objective))


def _presolve(n, rows, kinds):
    """Force variables to zero via one-signed zero-RHS rows; drop vacuous rows.

    ``rows`` are the ``(entries, b)`` rows of :func:`_int_program` and ``kinds`` their
    "eq" / "le" kinds.  Returns ``(kept columns, kept row indices, forcing)``
    or None when a row became unsatisfiable (certain infeasibility).
    ``forcing`` lists ``(row, sign, columns)`` in the order the rules fired:
    zero-RHS row ``row``, whose coefficients on the columns not yet forced
    all have sign ``sign``, forced those ``columns`` to zero.
    """
    forced = [False] * n
    forcing = []
    changed = True
    while changed:
        changed = False
        for k, ((entries, b), kind) in enumerate(zip(rows, kinds)):
            if b:
                continue
            live = [(j, a) for j, a in entries if not forced[j]]
            if not live:
                continue
            positive = live[0][1] > 0
            if any((a > 0) != positive for _, a in live):
                continue
            if not positive and kind == "le":
                continue  # sum of nonpositive terms <= 0 is vacuous
            cols = [j for j, _ in live]
            for j in cols:
                forced[j] = True
            forcing.append((k, 1 if positive else -1, cols))
            changed = True

    kept = [j for j in range(n) if not forced[j]]
    live_rows = []
    for k, ((entries, b), kind) in enumerate(zip(rows, kinds)):
        if any(not forced[j] for j, _ in entries):
            live_rows.append(k)
        # All live coefficients vanished: the row must hold on its own.
        elif (b != 0) if kind == "eq" else (b < 0):
            return None
    return kept, live_rows, forcing


class _Tableau:
    """Revised integer simplex tableau, stored by column: ``den * B^-1`` and the right-hand side.

    The true tableau is ``entries / den``.  Each constraint row starts with
    one unit column that it owns (a slack or an artificial), at the row's
    position among the owned columns.  Pivots combine whole rows, so those
    columns hold ``den * B^-1``, and every current column is that block times
    the column's initial entries.  ``cols[k]`` stores owned column ``k`` over
    every row, and ``cols[-1]`` the right-hand side.  Entry 0 of each is row
    0: ``u = den * pi`` with ``pi = c_B B^-1``, then the objective value, so
    every column has the row-0 entry (its negated reduced cost)
    ``u . A_j - den * c_j``.  Every ``columns[j]`` is ``(getter,
    coefficients)``: the getter picks the column's owned positions and
    coefficients None means all 1, so a slack or an artificial is the getter
    of its one position with None, and a surplus the same getter with
    ``(-1,)``.  Any row of column ``j`` is its getter's product with that
    row of the stored columns.

    The Bareiss update ``(x * piv - f * p) // den`` acts on each column
    alone, so running it over the stored columns leaves there exactly the
    entries of the dense fraction-free tableau, and a computed column equals
    the dense one.  It keeps ``u`` exact too: with ``f`` the pivot column's
    row-0 entry and ``p`` the pivot row, ``u * piv - f * p`` is ``den``
    times the next ``u``.

    A column whose pivot-row entry ``p`` is 0 is only rescaled by
    ``piv / den``, and rescales telescope.  So ``dens[k]`` records the
    ``den`` at which column ``k`` was last written, its current entries are
    ``x * den // dens[k]``, and a pivot rewrites only the columns with
    ``p != 0``.  For those the update from ``d = dens[k]`` is
    ``(x * piv - f * p) // d`` with ``x`` and ``p`` as stored and ``f`` at
    ``den``; setting the pivot column's entry in the pivot row to
    ``piv - den`` makes the same formula leave the pivot row as it is.
    Pivots, primal and dual are those of the dense tableau.

    Row 0 of the priced columns is kept too, in ``reduced``.  ``a_rows``
    holds A row by row: per owned position, the ``(priced column,
    coefficient)`` pairs of the row that owns it, so :meth:`times_a` gives
    row ``i`` of every priced column from the owned positions where row
    ``i`` of what is stored is nonzero.  :func:`_install_objective` prices
    row 0 once, ``times_a(0) - den * c``; after that each pivot updates it
    by the same Bareiss step as the stored columns, with the pivot row
    ``times_a(r)`` read before the pivot.  That is the dense tableau's
    row-0 update, so the division is exact and every entry is the dense one.
    """

    def __init__(self, cols, basis, columns, a_rows):
        self.cols = cols          # owned columns, then the right-hand side; entry 0 is row 0
        self.dens = [1] * len(cols)  # the den each stored column was last written at
        self.basis = basis        # basis[i - 1] = column basic in constraint row i
        self.columns = columns    # (getter, coefficients) per priced column
        self.a_rows = a_rows      # per owned position: (priced column, coefficient) pairs
        self.den = 1
        self.cost = [0] * len(columns)  # objective of the phase, set by _install_objective
        self.reduced = [0] * len(columns)  # row 0 of the priced columns, set by _install_objective

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def n_rows(self) -> int:
        """The number of constraint rows."""
        return len(self.cols[-1]) - 1

    def stored(self, k: int) -> list:
        """Stored column ``k`` (``-1``: the right-hand side) at the current ``den``.

        The stored list itself when it is current, so the caller must not modify it.
        """
        col, d, den = self.cols[k], self.dens[k], self.den
        return col if d == den else [x * den // d for x in col]

    def row(self, i: int) -> list:
        """Row ``i`` of what is stored at the current ``den``; row 0 is ``u``, then the value."""
        den = self.den
        return [c[i] if d == den else c[i] * den // d for c, d in zip(self.cols, self.dens)]

    def column(self, c: int) -> list:
        """Column ``c`` of every row, row 0 included.

        The parts stored at one ``den`` are summed first and the sum is
        brought to the current ``den`` once: each part scales exactly, so
        their sum does.
        """
        (get, coefs), den = self.columns[c], self.den
        groups = {}  # den -> the parts stored at it, each times its coefficient
        for part, d, a in zip(get(self.cols), get(self.dens), coefs or repeat(1)):
            groups.setdefault(d, []).append(part if a == 1 else [a * x for x in part])
        sums = [
            list(map(sum, zip(*parts))) if d == den
            else [x * den // d for x in map(sum, zip(*parts))]
            for d, parts in groups.items()
        ]
        if not sums:
            col = [0] * len(self.cols[-1])
        elif len(sums) == 1:
            col = sums[0]
        else:
            col = list(map(sum, zip(*sums)))
        col[0] -= den * self.cost[c]
        return col

    def times_a(self, i: int) -> list:
        """Row ``i`` of every priced column, without the objective's ``-den * c_j`` in row 0.

        Row ``i`` of what is stored times A, taken row by row: each owned
        position where row ``i`` is nonzero adds its pairs of ``a_rows``.
        """
        out = [0] * len(self.columns)
        for x, entries in zip(self.row(i), self.a_rows):
            if x:
                for j, a in entries:
                    out[j] += x * a
        return out

    def pivot(self, r: int, c: int, f: list) -> None:
        """Pivot constraint row ``r`` (1-based) on ``f = column(c)``, used up; ``f[r]`` > 0."""
        cols, dens, piv, den, f0 = self.cols, self.dens, f[r], self.den, f[0]
        self.reduced = [(x * piv - f0 * a) // den for x, a in zip(self.reduced, self.times_a(r))]
        f[r] = piv - den  # the update then leaves the pivot row as it is
        for k in compress(range(len(cols)), map(itemgetter(r), cols)):
            col, p, d = cols[k], cols[k][r], dens[k]
            cols[k] = [(x * piv - g * p) // d for x, g in zip(col, f)]
            dens[k] = piv
        self.den = piv
        self.basis[r - 1] = c

    def negate(self, i: int) -> None:
        """Negate constraint row ``i``."""
        for col in self.cols:
            col[i] = -col[i]

    def drop(self, i: int) -> None:
        """Delete constraint row ``i`` and its basic variable."""
        for col in self.cols:
            del col[i]
        del self.basis[i - 1]

    def _entering(self, first: bool) -> Optional[int]:
        """The entering column, or None when no row-0 entry is negative (optimal).

        The most negative entry of the kept row 0, the lowest index among
        equals; with ``first``, the first negative one (Bland's rule).
        """
        reduced = self.reduced
        if first:
            return next((j for j, d in enumerate(reduced) if d < 0), None)
        best = min(reduced, default=0)
        return reduced.index(best) if best < 0 else None

    def _leaving(self, col: list) -> Optional[int]:
        """The ratio-test row of entering column ``col``, or None when it is unbounded."""
        # The right-hand side as stored: one positive factor on every b
        # leaves the order of the ratios b / a alone.
        rhs = self.cols[-1]
        best = None  # (num, den, basis var, row)
        for i in range(1, len(rhs)):
            a = col[i]
            if a <= 0:
                continue
            b = rhs[i]
            if best is None:
                better = True
            else:
                cmp = b * best[1] - best[0] * a  # ratio b/a vs best
                better = cmp < 0 or (cmp == 0 and self.basis[i - 1] < best[2])
            if better:
                best = (b, a, self.basis[i - 1], i)
        return None if best is None else best[3]

    def run(self) -> str:
        """Pivot until "optimal" or "unbounded", entering on the largest coefficient.

        After ``DEGENERATE_RUN`` consecutive degenerate pivots (zero
        right-hand side in the pivot row) it enters on Bland's rule until the
        next nondegenerate pivot.  That terminates: a nondegenerate pivot
        strictly raises the objective, so no basis repeats across them, and
        within a degenerate run Bland's rule, with :meth:`_leaving`'s ties
        broken by the lowest basic index, cannot cycle.
        """
        stalled = 0
        while True:
            c = self._entering(stalled >= DEGENERATE_RUN)
            if c is None:
                return "optimal"
            col = self.column(c)
            r = self._leaving(col)
            if r is None:
                return "unbounded"
            stalled = 0 if self.cols[-1][r] else stalled + 1
            self.pivot(r, c, col)


def _sparse_column(positions: list, coefs: list) -> tuple:
    """The ``(getter, coefficients)`` form of a column with ``coefs`` at owned ``positions``."""
    return sequence_getter(positions), None if coefs.count(1) == len(coefs) else tuple(coefs)


@lru_cache(maxsize=16)
def _unit_getters(m: int) -> tuple:
    """Getters of the owned positions below ``m``; cached, as a scan's LPs share row counts."""
    return tuple(sequence_getter([t]) for t in range(m))


def _build_tableau(kept, rows, live_rows, kinds):
    """Revised tableau with slack/surplus/artificial columns and a feasible basis.

    Returns ``(tableau, artificial columns)`` with no objective row installed
    yet (row 0 is zeros).  Live row ``t`` (0-based) owns the column at
    position ``t``, a unit vector on its tableau row: the slack of a ``<=``
    row, or the artificial of an equality row or of a ``<=`` row
    sign-flipped for its negative right-hand side, whose slack becomes a
    surplus (coefficient -1).  Every later row, row 0 included, is a
    combination of the original rows with its weights at those positions,
    so once phase two ends, row 0's entry at ``t``, negated if the row was
    flipped, is the dual numerator of the row.  The tableau's ``a_rows``
    lists each live row's nonzero coefficients, sign-flipped ones included,
    by priced column: its kept columns, then its slack or surplus, then its
    artificial.
    """
    n, m = len(kept), len(live_rows)
    position_of = {j: p for p, j in enumerate(kept)}.get
    at = [[] for _ in range(n)]     # per kept column: owned positions
    coefs = [[] for _ in range(n)]  # and its coefficients there
    columns = [None] * (n + sum(1 for k in live_rows if kinds[k] == "le"))
    a_rows = [[] for _ in range(m)]  # per owned position: (priced column, coefficient)
    slack = n
    cols = [[0] * (m + 1) for _ in range(m + 1)]
    rhs = cols[m]
    basis, arts = [], []
    unit = _unit_getters(m)
    for t, k in enumerate(live_rows):
        entries, b = rows[k]
        sign = -1 if b < 0 else 1
        a_row = a_rows[t]
        for j, a in entries if sign > 0 else [(j, -a) for j, a in entries]:
            p = position_of(j)
            if p is not None:
                at[p].append(t)
                coefs[p].append(a)
                a_row.append((p, a))
        cols[t][t + 1] = 1
        rhs[t + 1] = sign * b
        if kinds[k] == "le":
            # A flipped row became >=: its slack is a surplus, not owned.
            columns[slack] = unit[t], None if sign > 0 else (-1,)
            a_row.append((slack, sign))
            basic = slack
            slack += 1
        if kinds[k] == "eq" or sign < 0:
            basic = len(columns)
            arts.append(basic)
            a_row.append((basic, 1))
            columns.append((unit[t], None))
        basis.append(basic)
    columns[:n] = map(_sparse_column, at, coefs)
    return _Tableau(cols, basis, columns, a_rows), arts


def _install_objective(tab: _Tableau, cost: dict) -> None:
    """Row 0 for maximizing ``sum(cost[j] * x_j)`` from the current basis.

    Row 0 is ``sum(c_B,i * row i)``: ``den * pi`` with ``pi = c_B B^-1`` at
    the owned positions, and ``den`` times the basis's objective value.
    Each stored column gets its entry at its own ``den``, as the rest of
    it is, and the kept row 0 is priced from it once.  Phase one passes
    cost -1 on every artificial column, phase two the integer objective on
    the kept columns.
    """
    tab.cost = [0] * tab.n_cols
    for j, c in cost.items():
        tab.cost[j] = c
    weights = [
        (i, cb) for i, col in enumerate(tab.basis, start=1) if (cb := cost.get(col, 0))
    ]
    for col in tab.cols:
        col[0] = sum([cb * col[i] for i, cb in weights])
    tab.reduced = [x - tab.den * c for x, c in zip(tab.times_a(0), tab.cost)]


def _drive_out_artificials(tab: _Tableau, arts) -> None:
    """Pivot every basic artificial out of its row, or delete the row, then retire them all.

    The artificials are the tail of ``tab.columns``, from ``arts[0]``.  A
    row's pivot column is its first other column with a nonzero entry, read
    by :meth:`_Tableau.times_a`, the product row 0 is priced by.  A row
    deleted here has its artificial basic, so that column is zero in every
    remaining row and stays zero: the row's dual reads 0.  The retired
    artificials leave the priced columns, row 0 and ``a_rows``; what they
    own stays stored, as part of ``den * B^-1``.
    """
    first = arts[0]
    i = 1
    while i <= tab.n_rows:
        if tab.basis[i - 1] < first:
            i += 1
            continue
        v = tab.times_a(i)
        j = next((j for j in range(first) if v[j]), None)
        if j is None:
            tab.drop(i)  # redundant constraint
            continue
        if v[j] < 0:
            tab.negate(i)
        tab.pivot(i, j, tab.column(j))
        i += 1
    del tab.columns[first:], tab.reduced[first:]
    for entries in tab.a_rows:
        if entries and entries[-1][0] >= first:
            entries.pop()  # an owned artificial, the last of its position's pairs


def _reach(rows, y, n) -> list[int]:
    """``A^T y`` over the integer rows, from the rows with a nonzero dual."""
    out = [0] * n
    for (entries, _), u in zip(rows, y):
        if u:
            for j, a in entries:
                out[j] += u * a
    return out


def _raise_forced_duals(rows, forcing, y, cost, den) -> None:
    """Meet the dual constraints of the columns presolve forced to zero.

    Those columns are not in the tableau, so row 0 says nothing about them.
    A forcing row has a zero right-hand side and nonzeros only on the
    columns it forced and on columns forced before it; it was dropped, so
    its dual starts at 0.  Raising that dual by ``sign * t`` adds
    ``t * |a|`` to each column the row forced and leaves ``b.y`` unchanged.
    Walking ``forcing`` backwards, each step moves only columns that later
    steps still fix.  ``t`` is rounded up, so ``y`` stays integral.
    """
    if not forcing:
        return
    reach = _reach(rows, y, len(cost))
    for r, sign, cols in reversed(forcing):
        entries = rows[r][0]
        coef = dict(entries)
        t = 0
        for j in cols:
            short = cost[j] * den - reach[j]
            if short > 0:
                t = max(t, -(-short // abs(coef[j])))
        if t:
            y[r] += sign * t
            for j, a in entries:
                reach[j] += sign * t * a


def _certify(rows, kinds, cost, x, y, den, value) -> None:
    """Check that ``x / den`` and ``y / den`` prove the optimum ``value / den``.

    Raises InternalConsistencyError on any failed condition: then the
    simplex returned no optimum.
    """
    def fail(what):
        raise InternalConsistencyError(f"LP optimum failed its certificate: {what}")

    if den <= 0 or any(v < 0 for v in x):
        fail("negative primal entry")
    for (entries, b), kind, u in zip(rows, kinds, y):
        lhs = sum(a * x[j] for j, a in entries)
        if lhs > b * den or (kind == "eq" and lhs != b * den):
            fail("primal row violated")
        if kind == "le" and u < 0:
            fail("negative dual on a <= row")
    if sum(c * v for c, v in zip(cost, x)) != value:
        fail("objective of the primal differs from the optimum")
    if sum(u * b for (_, b), u in zip(rows, y)) != value:
        fail("objective of the dual differs from the optimum")
    if any(r < c * den for r, c in zip(_reach(rows, y, len(x)), cost)):
        fail("dual row violated")


def maximize(lp: LinearProgram) -> LpOutcome:
    """Maximize exactly; OPTIMAL outcomes carry the optimum and a certified pair over ``den``.

    Presolve, then phase one on the artificial columns when any row needs
    one, then phase two on the objective, then the certificate check.
    Raises MalformedInput when a number of ``lp`` is not an int.
    """
    n = len(lp.objective)
    rows, kinds, cost = _int_program(lp)
    pre = _presolve(n, rows, kinds)
    if pre is None:
        return LpOutcome(LpStatus.INFEASIBLE)
    kept, live_rows, forcing = pre

    tab, arts = _build_tableau(kept, rows, live_rows, kinds)
    if arts:
        _install_objective(tab, dict.fromkeys(arts, -1))
        tab.run()  # cannot be unbounded: phase-1 objective is bounded by 0
        if tab.cols[-1][0] != 0:
            return LpOutcome(LpStatus.INFEASIBLE)
        _drive_out_artificials(tab, arts)

    _install_objective(tab, {p: cost[j] for p, j in enumerate(kept) if cost[j]})
    if tab.run() == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED)

    den, row0, rhs = tab.den, tab.row(0), tab.stored(-1)
    x = [0] * n
    for i, col in enumerate(tab.basis, start=1):
        if col < len(kept):
            x[kept[col]] = rhs[i]
    y = [0] * len(rows)
    for t, k in enumerate(live_rows):
        y[k] = -row0[t] if rows[k][1] < 0 else row0[t]
    _raise_forced_duals(rows, forcing, y, cost, den)
    _certify(rows, kinds, cost, x, y, den, row0[-1])
    return LpOutcome(LpStatus.OPTIMAL, row0[-1], tuple(x), tuple(y), den)


def solve_feasibility(a: Sequence[tuple], b: Sequence, n: int) -> LpOutcome:
    """Decide A x = b, x >= 0 exactly: :func:`maximize` with a zero objective.

    ``a`` holds sparse rows over ``n`` columns, as in :class:`LinearProgram`.
    FEASIBLE outcomes carry an exact witness, numerators over ``den``;
    INFEASIBLE means the phase-one optimum is strictly positive, i.e. no
    nonnegative solution exists.
    """
    out = maximize(LinearProgram(objective=(0,) * n, a_eq=tuple(a), b_eq=tuple(b)))
    if out.status is LpStatus.OPTIMAL:
        return LpOutcome(LpStatus.FEASIBLE, solution=out.solution, den=out.den)
    return out
