"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive (subset enumeration, dense rational
Gaussian elimination) and shares no code with the solvers under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache


def chsh_noisy_cf(lam):
    """CF of the (2,2,2) lift with one odd context mixed with white noise at weight ``lam``.

    That lift is a PR box, whose CHSH value is 4 against the noncontextual
    bound 2; at visibility ``1 - lam`` the value is ``4 (1 - lam)``, and the
    contextual fraction of the CHSH family is the excess over 2 divided by
    the PR box's excess 2, so CF = max(0, 1 - 2 lam).
    """
    return max(Fraction(0), 1 - 2 * Fraction(lam))


def incidence_bruteforce(observables, contexts):
    """Sparse incidence rows of a dichotomic cover, straight from the definition.

    One row per (context, section), contexts in order and sections in
    big-endian order; row ``(c, sec)`` lists ``(g, 1)`` for every global
    assignment ``g`` (big-endian over ``observables``) whose outcomes on
    context ``c``, read in context order, spell ``sec``.
    """
    n = len(observables)
    assignments = list(itertools.product((0, 1), repeat=n))
    rows = []
    for ctx in contexts:
        positions = [observables.index(label) for label in ctx]
        for sec in itertools.product((0, 1), repeat=len(ctx)):
            rows.append(tuple(
                (g, 1) for g, values in enumerate(assignments)
                if tuple(values[k] for k in positions) == sec
            ))
    return tuple(rows)


def gauss_solve(rows, rhs):
    """One exact solution of ``rows . x = rhs`` with free variables at 0, or None."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [a * inv for a in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for row_idx, col in enumerate(pivots):
        x[col] = aug[row_idx][n]
    return x


def _basic_feasible(a, b, n):
    """Every nonnegative basic solution of ``A z = b`` over ``n`` columns (repeats allowed).

    Each column subset of at most ``len(a)`` columns is solved with the
    others at 0; every vertex of ``{A z = b, z >= 0}`` is one of these.
    """
    for size in range(min(len(a), n) + 1):
        for subset in itertools.combinations(range(n), size):
            z_sub = gauss_solve([[row[j] for j in subset] for row in a], b)
            if z_sub is None or any(v < 0 for v in z_sub):
                continue
            z = [Fraction(0)] * n
            for j, v in zip(subset, z_sub):
                z[j] = v
            yield z


def feasible_bruteforce(a, b):
    """Decide A x = b, x >= 0 by enumerating basic solutions of column subsets.

    Returns a nonnegative witness or None.  Sound and complete for any
    feasible system, because some independent column subset supports a basic
    feasible solution whose unique solve this enumeration visits.
    """
    return next(_basic_feasible(a, b, len(a[0]) if a else 0), None)


def lp_bruteforce(c, a_eq, b_eq, a_le, b_le):
    """``(status, value)`` of max c.x s.t. A_eq x = b_eq, A_le x <= b_le, x >= 0.

    Rows are dense.  Slack columns put the program in standard form
    ``A z = b, z >= 0``.  It is "infeasible" when no basic solution is
    nonnegative.  It is "unbounded" when it is feasible and some ray
    ``d >= 0`` with ``A d = 0`` has ``c.d > 0``; those rays, scaled to
    ``1.d = 1``, form a polytope, so the vertices of
    ``{A d = 0, 1.d = 1, d >= 0}`` decide it.  Otherwise it is "optimal" and
    the value is the best basic feasible solution's.
    """
    n, m_le = len(c), len(a_le)
    a = [list(row) + [0] * m_le for row in a_eq]
    a += [list(row) + [int(i == k) for k in range(m_le)] for i, row in enumerate(a_le)]
    b = list(b_eq) + list(b_le)
    cost = list(c) + [0] * m_le
    width = n + m_le

    def objective(z):
        return sum(Fraction(ci) * zi for ci, zi in zip(cost, z))

    values = [objective(z) for z in _basic_feasible(a, b, width)]
    if not values:
        return "infeasible", None
    rays = _basic_feasible(a + [[1] * width], [0] * len(a) + [1], width)
    if any(objective(d) > 0 for d in rays):
        return "unbounded", None
    return "optimal", max(values)


def proves_optimum(c, a_eq, b_eq, a_le, b_le, value, x, y) -> bool:
    """Whether ``x`` and ``y`` prove ``value`` the optimum of max c.x s.t. A_eq x = b_eq, A_le x <= b_le, x >= 0.

    Rows are sparse ``(column, coefficient)`` pairs, and ``y`` has one entry
    per row, equality rows first.  In Fraction arithmetic: ``x`` is
    nonnegative and meets every row, ``y`` is nonnegative on the ``<=``
    rows and ``A^T y >= c``, and ``c.x = b.y = value``.  By weak duality
    that proves both optimal.
    """
    rows = list(a_eq) + list(a_le)
    rhs = list(b_eq) + list(b_le)
    if len(x) != len(c) or len(y) != len(rows):
        return False
    x, y = [Fraction(v) for v in x], [Fraction(u) for u in y]
    if any(v < 0 for v in x) or any(u < 0 for u in y[len(a_eq):]):
        return False
    for k, (row, b) in enumerate(zip(rows, rhs)):
        lhs = sum(a * x[j] for j, a in row)
        if lhs > b or (k < len(a_eq) and lhs != b):
            return False
    reach = [Fraction(0)] * len(c)
    for row, u in zip(rows, y):
        for j, a in row:
            reach[j] += a * u
    if any(r < cj for r, cj in zip(reach, c)):
        return False
    return sum(cj * v for cj, v in zip(c, x)) == value == sum(b * u for b, u in zip(rhs, y))


def equitable_violation(rows, b, c, row_class, column_class):
    """How a partition of an LP fails to be equitable, or None when it is equitable.

    The LP is ``max c.x`` subject to ``rows . x <= b``, each row a tuple of
    ``(column, coefficient)`` pairs; ``row_class[i]`` is the class of row
    ``i`` and ``column_class[j]`` that of column ``j``.  Equitable means:
    ``b`` is constant on every row class and ``c`` on every column class;
    for every row class R and column class C, each row of R has the same
    coefficient sum over the columns of C, and each column of C the same
    coefficient sum over the rows of R.
    """
    for name, values, classes in (("b", b, row_class), ("c", c, column_class)):
        first = {}
        for k, (value, cls) in enumerate(zip(values, classes, strict=True)):
            if first.setdefault(cls, value) != value:
                return f"{name}[{k}] = {value} differs from {first[cls]} in class {cls}"
    row_sums = [{} for _ in rows]
    column_sums = [{} for _ in column_class]
    for i, row in enumerate(rows):
        for j, a in row:
            row_sums[i][column_class[j]] = row_sums[i].get(column_class[j], 0) + a
            column_sums[j][row_class[i]] = column_sums[j].get(row_class[i], 0) + a
    for name, sums, classes, other in (
        ("row", row_sums, row_class, set(column_class)),
        ("column", column_sums, column_class, set(row_class)),
    ):
        first = {}
        for k, cls in enumerate(classes):
            spelled = {o: sums[k].get(o, 0) for o in other}
            if first.setdefault(cls, spelled) != spelled:
                return f"{name} {k} has other class sums than the first {name} of class {cls}"
    return None


class DenseTableau:
    """A dense fraction-free simplex tableau that pivots only where it is told.

    Built by :meth:`standard_form` from integer rows, in the layout of the
    library's two-phase simplex: equality rows, then ``<=`` rows, each
    negated when its right-hand side is negative; one slack per ``<=`` row,
    a surplus (coefficient -1) when the row was negated, then one artificial
    per equality or negated row, in row order.  ``rows[0]`` is the objective
    row, ``rows[i]`` constraint row ``i``; each lists one entry per column
    and then its right-hand side, and the true tableau is ``rows / den``.
    ``basis[i - 1]`` is the column basic in row ``i``.  Nothing here chooses
    a pivot: a caller replays a pivot sequence.  Every entry is updated
    densely, by Bareiss's ``(x * piv - f * p) // den``.
    """

    def __init__(self, rows, basis):
        self.rows = [list(row) for row in rows]
        self.basis = list(basis)
        self.den = 1

    @classmethod
    def standard_form(cls, n, a_eq, b_eq, a_le, b_le):
        """The starting tableau of dense integer rows over ``n`` columns, row 0 all zero."""
        kinds = ["eq"] * len(a_eq) + ["le"] * len(a_le)
        slacks = len(a_le)
        flipped = [b < 0 for b in list(b_eq) + list(b_le)]
        arts = sum(1 for kind, f in zip(kinds, flipped) if kind == "eq" or f)
        width = n + slacks + arts
        rows, basis = [[0] * (width + 1)], []
        slack, art = n, n + slacks
        for kind, a, b, f in zip(kinds, list(a_eq) + list(a_le), list(b_eq) + list(b_le), flipped):
            sign = -1 if f else 1
            row = [sign * x for x in a] + [0] * (width - n) + [sign * b]
            if kind == "le":
                row[slack] = sign
                basic = slack
                slack += 1
            if kind == "eq" or f:
                row[art] = 1
                basic = art
                art += 1
            rows.append(row)
            basis.append(basic)
        return cls(rows, basis)

    def objective(self, cost):
        """Row 0 for maximizing ``sum(cost[j] * x_j)`` from the current basis."""
        row0 = [0] * len(self.rows[0])
        for i, j in enumerate(self.basis, start=1):
            cb = cost.get(j, 0)
            row0 = [x + cb * a for x, a in zip(row0, self.rows[i])]
        for j, c in cost.items():
            row0[j] -= self.den * c
        self.rows[0] = row0

    def pivot(self, r, c):
        """Pivot row ``r`` on column ``c``, whose entry must be positive."""
        prow, piv, den = self.rows[r], self.rows[r][c], self.den
        assert piv > 0, "pivot entry must be positive"
        self.rows = [
            row if i == r else [(x * piv - row[c] * p) // den for x, p in zip(row, prow)]
            for i, row in enumerate(self.rows)
        ]
        self.den = piv
        self.basis[r - 1] = c

    def negate(self, i):
        self.rows[i] = [-x for x in self.rows[i]]

    def drop(self, i):
        del self.rows[i]
        del self.basis[i - 1]


def matrix_rank(rows):
    """Exact rank over the rationals."""
    work = [[Fraction(a) for a in row] for row in rows]
    n = len(work[0]) if work else 0
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [a * inv for a in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


@lru_cache(maxsize=None)
def box_polytope_dimension(n_parties: int, settings: int) -> int:
    """Affine dimension of the no-signaling set of an (n, m, 2) box scenario.

    Builds the full conditional-probability vector (one coordinate per
    settings tuple and outcome tuple), imposes normalization and one-party
    no-signaling rows, and returns #variables - rank.
    """
    settings_tuples = list(itertools.product(range(settings), repeat=n_parties))
    outcome_tuples = list(itertools.product((0, 1), repeat=n_parties))
    index = {
        (s, o): k
        for k, (s, o) in enumerate(itertools.product(settings_tuples, outcome_tuples))
    }
    n_vars = len(index)
    rows = []
    for s in settings_tuples:
        row = [Fraction(0)] * n_vars
        for o in outcome_tuples:
            row[index[(s, o)]] = Fraction(1)
        rows.append(row)
    for j in range(n_parties):
        for sa, sb in itertools.combinations(range(settings), 2):
            other_parties = [k for k in range(n_parties) if k != j]
            for rest_settings in itertools.product(range(settings), repeat=len(other_parties)):
                for rest_outcomes in itertools.product((0, 1), repeat=len(other_parties)):
                    row = [Fraction(0)] * n_vars
                    for xj in (0, 1):
                        for setting_j, sign in ((sa, 1), (sb, -1)):
                            s = [0] * n_parties
                            o = [0] * n_parties
                            for pos, k in enumerate(other_parties):
                                s[k] = rest_settings[pos]
                                o[k] = rest_outcomes[pos]
                            s[j] = setting_j
                            o[j] = xj
                            row[index[(tuple(s), tuple(o))]] += sign
                    rows.append(row)
    return n_vars - matrix_rank(rows)


# --- the (3,2,2) Bell scenario, enumerated directly ----------------------------
#
# Layout used below (the library's bell_scenario(3, 2) order, restated here so
# nothing is imported from it): a global assignment is a 6-tuple of bits with
# party k's setting s at position 2*k + s; context (s1, s2, s3) is row
# 4*s1 + 2*s2 + s3; the section (o1, o2, o3) is column 4*o1 + 2*o2 + o3.

BELL_322_ASSIGNMENTS = tuple(itertools.product((0, 1), repeat=6))


def section_322(assignment, context: int) -> tuple[int, int, int]:
    """Outcomes ``(o1, o2, o3)`` a global assignment gives in a context."""
    settings = ((context >> 2) & 1, (context >> 1) & 1, context & 1)
    return tuple(assignment[2 * k + settings[k]] for k in range(3))


def restrict_322(assignment, context: int) -> int:
    """Column of the context's row that a global assignment restricts to."""
    o1, o2, o3 = section_322(assignment, context)
    return 4 * o1 + 2 * o2 + o3


def global_marginals_322(weights):
    """Per-context tables of a global distribution ``{assignment: weight}``."""
    tables = [[Fraction(0)] * 8 for _ in range(8)]
    for assignment, weight in weights.items():
        for c in range(8):
            tables[c][restrict_322(assignment, c)] += Fraction(weight)
    return tables


def ncf_bounds_322(tables):
    """Brute-force bounds on the noncontextual fraction (NCF) of a (3,2,2) table.

    Returns ``(compatible, lower, upper)``:

    * ``compatible`` -- the global assignments whose restriction to every
      context has positive mass.  Any noncontextual sub-model lies under the
      table entrywise, so it is supported on these.
    * ``lower`` -- total weight of the uniform sub-distribution on
      ``compatible``, scaled up until some table entry binds (a primal
      witness: NCF >= lower).
    * ``upper`` -- the least mass any one context puts on the restrictions of
      ``compatible`` (a single-context dual: NCF <= upper).

    CF = 1 - NCF, so ``1 - upper <= CF <= 1 - lower``.
    """
    rows = [[Fraction(v) for v in row] for row in tables]
    compatible = [
        g for g in BELL_322_ASSIGNMENTS
        if all(rows[c][restrict_322(g, c)] > 0 for c in range(8))
    ]
    if not compatible:
        return compatible, Fraction(0), Fraction(0)
    weight = None
    upper = None
    for c in range(8):
        counts = [0] * 8
        for g in compatible:
            counts[restrict_322(g, c)] += 1
        for col, n in enumerate(counts):
            if n and (weight is None or rows[c][col] / n < weight):
                weight = rows[c][col] / n
        mass = sum(rows[c][col] for col, n in enumerate(counts) if n)
        if upper is None or mass < upper:
            upper = mass
    return compatible, len(compatible) * weight, upper


def parity_solutions_322(parities):
    """Global assignments meeting ``{context: parity}`` (o1 + o2 + o3 mod 2)."""
    return [
        g for g in BELL_322_ASSIGNMENTS
        if all(sum(section_322(g, c)) % 2 == p for c, p in parities.items())
    ]


# --- parity vectors of bell-n-2 -------------------------------------------------
#
# Layout restated for bell-n-2 (n parties, two settings each): party k's
# setting s is observable 2*k + s, and a context picks one setting per party.
# The counts below do not depend on the order of observables or contexts.


def bell_n2_contexts(n: int):
    """Each context of bell-n-2 as the tuple of its observables' indices."""
    return [
        tuple(2 * k + s for k, s in enumerate(settings))
        for settings in itertools.product((0, 1), repeat=n)
    ]


def gf2_rank(masks) -> int:
    """Rank over GF(2) of rows given as integer bitmasks."""
    rows = [m for m in masks if m]
    rank = 0
    while rows:
        pivot = rows.pop()
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
        rank += 1
    return rank


def bell_n2_consistent_bruteforce(n: int) -> int:
    """Parity vectors of bell-n-2 that some global assignment satisfies, one by one.

    Vector ``p`` (one bit per context) is consistent when an assignment of
    0/1 outcomes to the 2n observables makes every context's outcome sum
    equal its bit mod 2.  Costs 2^(2^n) * 4^n checks: n <= 3 only.
    """
    contexts = bell_n2_contexts(n)
    assignments = list(itertools.product((0, 1), repeat=2 * n))
    return sum(
        1
        for p in itertools.product((0, 1), repeat=len(contexts))
        if any(
            all(sum(g[x] for x in ctx) % 2 == bit for ctx, bit in zip(contexts, p))
            for g in assignments
        )
    )


def bell_n2_consistent_by_rank(n: int) -> int:
    """The same count as 2^rank: the consistent vectors are the image of the flip map."""
    return 1 << gf2_rank(sum(1 << x for x in ctx) for ctx in bell_n2_contexts(n))


def bell_n2_amcc_count(n: int) -> int:
    """AMCC uniform lifts among the parity vectors of bell-n-2, counted independently.

    Every GF(2)-inconsistent vector's uniform lift is AMCC, so the count is
    the number of inconsistent vectors: brute force for n <= 3, the rank
    count above n = 3.
    """
    consistent = (
        bell_n2_consistent_bruteforce(n) if n <= 3 else bell_n2_consistent_by_rank(n)
    )
    return (1 << (1 << n)) - consistent


def bell_n2_amcc_closed_form(n: int) -> int:
    """2^(2^n) - 2^(n+1).

    For each party k the flip columns of observables 2k and 2k + 1 sum to
    the all-ones vector, so the flip map has rank 2n - (n - 1) = n + 1 and
    2^(n+1) of the 2^(2^n) vectors are consistent.
    """
    return (1 << (1 << n)) - (1 << (n + 1))


# --- symmetries of a cover --------------------------------------------------------
#
# A cover is given as its observable labels and its contexts, label tuples.


def cover_automorphisms_bruteforce(observables, contexts):
    """Every context permutation induced by a relabelling that maps the cover onto itself.

    Tries each of the n! permutations of the observables; one that maps
    every context, as a label set, onto a context of the cover sends context
    ``c`` to context ``perm[c]``.  Returns the set of those ``perm`` tuples.
    """
    cover = [frozenset(ctx) for ctx in contexts]
    found = set()
    for images in itertools.permutations(observables):
        rename = dict(zip(observables, images))
        mapped = [frozenset(rename[x] for x in ctx) for ctx in cover]
        if all(ctx in cover for ctx in mapped):
            found.add(tuple(cover.index(ctx) for ctx in mapped))
    return found


def parity_orbits_bruteforce(observables, contexts):
    """Classes of the inconsistent parity vectors joined by outcome flips and relabellings.

    A parity vector has one bit per context.  Flipping the outcomes of a set
    of observables adds, mod 2, the number of flipped observables in each
    context; relabelling by a cover automorphism moves context ``c``'s bit to
    context ``perm[c]``.  Consistent vectors, the flips of the all-0 vector,
    are left out.  Each class is a sorted list, and the classes come in the
    order of their least vectors.
    """
    flips = {
        tuple(sum(v[observables.index(x)] for x in ctx) % 2 for ctx in contexts)
        for v in itertools.product((0, 1), repeat=len(observables))
    }
    perms = cover_automorphisms_bruteforce(observables, contexts)
    seen = set(flips)
    orbits = []
    for p in itertools.product((0, 1), repeat=len(contexts)):
        if p in seen:
            continue
        seen.add(p)
        orbit = [p]
        for q in orbit:
            moved = [tuple(a ^ b for a, b in zip(q, f)) for f in flips]
            for perm in perms:
                image = [0] * len(q)
                for c, bit in enumerate(q):
                    image[perm[c]] = bit
                moved.append(tuple(image))
            for r in moved:
                if r not in seen:
                    seen.add(r)
                    orbit.append(r)
        orbits.append(sorted(orbit))
    return orbits


# --- marginals of context tables ------------------------------------------------
#
# A row holds one entry per section of its context; section ``sec`` gives the
# context's labels the outcomes spelled by ``itertools.product((0, 1), ...)``
# in that same position, the big-endian order restated without any index
# arithmetic.


def marginal_bruteforce(context, row, subset):
    """The mass ``row`` puts on each section of ``subset``, a tuple of labels of ``context``.

    Every section of the context is spelled out as a label-to-outcome map and
    its entry added to the subset section it restricts to; subset sections
    come in the same product order.
    """
    mass = {}
    for outcomes, entry in zip(itertools.product((0, 1), repeat=len(context)), row):
        value = dict(zip(context, outcomes))
        key = tuple(value[label] for label in subset)
        mass[key] = mass.get(key, 0) + entry
    return tuple(mass.get(key, 0) for key in itertools.product((0, 1), repeat=len(subset)))


def signaling_bruteforce(observables, contexts, rows):
    """The first context pair ``a < b`` whose marginals differ on their shared labels, or None.

    Pairs are visited as ``(0, 1), (0, 2), ..., (1, 2), ...``; the shared
    labels are listed in ``observables`` order.  Returns
    ``(a, b, shared, marginal_a, marginal_b)``.
    """
    for a, b in itertools.combinations(range(len(contexts)), 2):
        shared = tuple(x for x in observables if x in contexts[a] and x in contexts[b])
        if not shared:
            continue
        ma = marginal_bruteforce(contexts[a], rows[a], shared)
        mb = marginal_bruteforce(contexts[b], rows[b], shared)
        if ma != mb:
            return a, b, shared, ma, mb
    return None


def non_uniform_marginal_bruteforce(contexts, rows, den):
    """The first proper within-context marginal that is not uniform, or None.

    Contexts in order; within context ``c`` the subsets are the bitmasks
    ``1 .. 2**k - 2``, bit ``i`` selecting the ``i``-th label.  A marginal
    on ``j`` labels is uniform when every entry is ``den / 2**j``.  Returns
    ``(c, subset, marginal)``.
    """
    for c, (context, row) in enumerate(zip(contexts, rows)):
        k = len(context)
        for bits in range(1, 2**k - 1):
            subset = tuple(context[i] for i in range(k) if bits >> i & 1)
            marg = marginal_bruteforce(context, row, subset)
            if any(Fraction(x) != Fraction(den, 2 ** len(subset)) for x in marg):
                return c, subset, marg
    return None


def support_signaling_bruteforce(observables, contexts, supports):
    """The first context pair ``a < b`` whose supports differ on their shared labels, or None.

    ``supports[c]`` holds one 0/1 entry per section of context ``c``.  A
    section of the shared labels is possible in a context when some
    supported section restricts to it: its :func:`marginal_bruteforce` mass
    is positive.  Pairs and shared labels are visited as in
    :func:`signaling_bruteforce`.  Returns ``(a, b, shared, possible_a,
    possible_b)``, the last two as 0/1 tuples.
    """
    for a, b in itertools.combinations(range(len(contexts)), 2):
        shared = tuple(x for x in observables if x in contexts[a] and x in contexts[b])
        if not shared:
            continue
        pa, pb = (
            tuple(int(mass > 0) for mass in marginal_bruteforce(contexts[c], supports[c], shared))
            for c in (a, b)
        )
        if pa != pb:
            return a, b, shared, pa, pb
    return None
