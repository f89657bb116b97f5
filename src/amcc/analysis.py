"""Contextuality decisions for no-signaling empirical models.

Two independent decision routes are implemented and cross-checked:

* an exact linear program over the incidence matrix (what is the largest
  noncontextual weight? the model is contextual iff it is below 1, and at
  weight 1 the optimum is a global distribution reproducing every row), and
* an exhaustive scan of global assignments against the support pattern
  (is there an assignment compatible with every context's support?).

The LP is solved reduced, on a partition of its rows and columns: one
column per class of global assignments and one row per class of (context,
section) rows.  One builder, ``_on_classes``, makes every reduced LP from
the incidence matrix, and two partitions feed it.  The first is the orbits
of the group H of global outcome flips that fix every context table: the
cosets of H and the orbits of rows.  A global flip restricts to a context
exactly as a global assignment does, so H is the support scan run on the
pattern of per-context stabilisers.  An orbit LP with at least
REFINE_MIN_ENTRIES nonzeros takes the second, its coarsest equitable
partition: colour refinement of its rows (started from their right-hand
sides) and columns, which can also merge rows and columns that no outcome
flip maps to one another, composed with the orbits.

The solver returns the optimum as integer numerators over one
denominator, and the lift keeps them integers: over ``d``, that
denominator times the lcm of the row classes' sizes, each assignment
takes its class's weight and each row its class's dual divided by the
class size, so no Fraction is made between the solver and the CF.  The
lifted pair must pass an integer certificate that is a proof about the
full LP from :func:`incidence_matrix` without trusting how H or the
partition was found.  Each generator of H, a basis taken from H's
bitmask, is checked directly to fix the model's rows and the lifted
primal and dual.  Invariance makes every dual row constant on a coset and
every primal slack constant on a row orbit, so checking one dual row per
coset and one primal row per orbit, with both objectives over the whole
lifted pair, covers every row and column of the full LP.  That check, not
the reduction, decides: a wrong partition can only raise.

One cached quotient per (scenario, group) holds what H decides, the
orbit LP and the maps the certificate checks, so the two always see the
same group; a bitmask not closed under XOR gets its closure's.  With H
trivial the orbit LP is the full LP.  The refined LP is cached per
(scenario, group, equality pattern of the right-hand side), of which it
is a pure function.

``classify`` runs both routes and raises ``InternalConsistencyError`` if they
ever disagree, rather than returning a silently wrong verdict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm
from operator import itemgetter, mul
from typing import Callable, Optional, Union

from .empirical import (
    EmpiricalModel,
    PossibilisticModel,
    format_rational,
    is_maximal_marginal,
    is_no_signaling,
    possibilistic_collapse,
)
from .errors import InternalConsistencyError, SignalingInput, TooLarge
from .ratlp import LinearProgram, LpStatus, checked_rows, maximize
from .scenario import (
    SCENARIO_CACHE_SIZE, MeasurementScenario, projection, section_values, sequence_getter,
)

#: Hard cap on the size of the full incidence LP, (context, section) rows
#: times global assignments; bell-5-2 is exactly this size.
LP_ENTRY_LIMIT = 1 << 20

#: Orbit-LP nonzeros from which the CF LP is solved on its coarsest equitable
#: partition (see :func:`_refined`).  Refining every orbit LP was measured to
#: cost the 8b slice scan about 16% of its throughput: its 16 x 16 orbit LPs
#: bring about 282 right-hand-side patterns per pass, which thrash the
#: 256-entry cache of refined LPs, while it gained the CLI mix 5-18%.
REFINE_MIN_ENTRIES = 1024


@lru_cache(maxsize=SCENARIO_CACHE_SIZE)
def restriction_table(s: MeasurementScenario) -> tuple[tuple[int, ...], ...]:
    """``table[c][g]`` = canonical section index of global assignment ``g`` in context ``c``.

    Global assignments are indexed by their outcome tuple read as a
    big-endian binary number (:func:`~amcc.scenario.section_index`).
    Raises TooLarge, before any table is built, when the full incidence LP
    would have more than LP_ENTRY_LIMIT entries.
    """
    rows = sum(1 << len(ctx) for ctx in s.contexts)
    if rows << len(s.observables) > LP_ENTRY_LIMIT:
        raise TooLarge(
            f"{rows} rows x 2**{len(s.observables)} global assignments exceed "
            f"the {LP_ENTRY_LIMIT}-entry LP guard"
        )
    return tuple(projection(s.observables, ctx) for ctx in s.contexts)


@lru_cache(maxsize=SCENARIO_CACHE_SIZE)
def global_masks(s: MeasurementScenario) -> tuple[tuple[int, ...], ...]:
    """``masks[c][sec]`` = bitmask over global assignments restricting to ``sec``."""
    table = restriction_table(s)
    out = []
    for c in range(s.n_contexts):
        masks = [0] * s.n_sections(c)
        for g, sec in enumerate(table[c]):
            masks[sec] |= 1 << g
        out.append(tuple(masks))
    return tuple(out)


@lru_cache(maxsize=SCENARIO_CACHE_SIZE)
def incidence_matrix(s: MeasurementScenario) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The 0/1 incidence matrix as sparse LP rows, the full rows of the CF LP.

    Rows are the (context, section) pairs in canonical order, columns the
    global assignments; row ``r`` lists ``(g, 1)`` for each assignment ``g``
    restricting to its section, in increasing ``g``, so every column has
    exactly one 1 per context.  The rows of ``g`` share one ``(g, 1)`` object.
    """
    table = restriction_table(s)  # its size guard runs before any list is built
    units = [(g, 1) for g in range(1 << len(s.observables))]
    rows = []
    for c, proj in enumerate(table):
        hits = [[] for _ in range(s.n_sections(c))]
        for unit, sec in zip(units, proj):
            hits[sec].append(unit)
        rows.extend(map(tuple, hits))
    return tuple(rows)


def _require_no_signaling(m: EmpiricalModel) -> None:
    ok, witness = is_no_signaling(m)
    if not ok:
        raise SignalingInput(witness.describe())


def allowed_mask(s: MeasurementScenario, c: int, sections: int) -> int:
    """Bitmask of global assignments whose restriction to context ``c`` is in ``sections``.

    ``sections`` is a bitmask over the canonical sections of ``c``.
    """
    out = 0
    for sec, mask in enumerate(global_masks(s)[c]):
        if (sections >> sec) & 1:
            out |= mask
    return out


def support_mask(p: PossibilisticModel) -> int:
    """Bitmask of global assignments compatible with every context's support."""
    acc = -1  # every assignment, with no 2**n-bit mask built before the size guard
    for c, sections in enumerate(p.masks):
        acc &= allowed_mask(p.scenario, c, sections)
        if acc == 0:
            break
    return acc


def _bit_string(idx: int, width: int) -> str:
    """The outcome bits of section ``idx`` of a ``width``-observable domain, as a string."""
    return "".join(map(str, section_values(idx, width)))


def contextual_fraction(m: EmpiricalModel) -> Fraction:
    """CF = 1 - max{ sum(d) : M d <= v, d >= 0 }, exactly."""
    return _contextual_fraction_with_witness(m)[0]


# --- the CF LP on outcome-flip orbits -----------------------------------------
#
# A global flip h (a bitmask over global assignments' bits) maps assignment g
# to g ^ h and section sec of context c to sec ^ h|c.  The flips that fix every
# context table form a group H, and the CF LP is invariant under H, so it has
# an H-invariant optimum: one weight per coset of H and one dual per orbit of
# (context, section) rows.


@lru_cache(maxsize=None)
def _section_flips(width: int) -> tuple:
    """One getter per section flip ``f`` of a ``width``-observable context.

    Getter ``f`` maps a row to the tuple of its entries at ``sec ^ f``.
    """
    n = 1 << width
    return tuple(itemgetter(*(sec ^ f for sec in range(n))) for f in range(n))


def _stabilizer(row) -> int:
    """Bitmask of the section flips ``f`` with ``row[sec ^ f] == row[sec]`` everywhere."""
    out = 0
    for f, flip in enumerate(_section_flips(len(row).bit_length() - 1)):
        if flip(row) == row:
            out |= 1 << f
    return out


@dataclass(frozen=True)
class _ClassLP:
    """The CF LP on classes of global assignments and of full rows, with the maps that lift it.

    Every reduced LP is one of these, built by :func:`_on_classes`.  Column
    ``C`` is the common weight of the assignments in one class, so its
    objective coefficient is the class's size.  Row ``R`` is full row
    ``row_reps[R]``, the least of its class, on those weights; every row of
    the class reads the same there, so its dual is shared by the class's
    ``row_split[R]`` full rows.  Full rows are numbered as in
    :func:`incidence_matrix`.  ``lift_columns`` reads a vector over column
    classes to one over global assignments, and ``lift_rows`` one over row
    classes to one over full rows.
    """

    objective: tuple[int, ...]
    a_le: tuple[tuple[tuple[int, int], ...], ...]
    row_reps: tuple[int, ...]
    row_split: tuple[int, ...]
    lift_columns: Callable
    lift_rows: Callable


def _on_classes(s: MeasurementScenario, row_class, column_class) -> _ClassLP:
    """The CF LP of ``s`` on classes of its full rows and global assignments.

    ``row_class[r]`` is the class of full row ``r`` and ``column_class[g]``
    that of assignment ``g``, each numbered from 0 by first occurrence.  A
    class's objective coefficient and row split are its sizes, its row is
    its least member's incidence row with the 1s summed over each column
    class, and its lift map is the getter of the class vector.  Every row
    holding one ``(class, coefficient)`` pair holds one shared object, and
    the rows pass :func:`~amcc.ratlp.checked_rows` here, once per cached LP.
    """
    matrix = incidence_matrix(s)
    reps = {}  # row class -> its least full row
    for r, cls in enumerate(row_class):
        reps.setdefault(cls, r)
    pairs = {}  # (class, coefficient) -> its one shared object
    a_le = []
    for r in reps.values():
        sums = Counter([column_class[g] for g, _ in matrix[r]])
        a_le.append([pairs.setdefault(p, p) for p in sorted(sums.items())])
    objective = tuple(Counter(column_class).values())  # first occurrence: in class order
    return _ClassLP(
        objective=objective,
        a_le=checked_rows(a_le, len(objective)),
        row_reps=tuple(reps.values()),
        row_split=tuple(Counter(row_class).values()),
        lift_columns=sequence_getter(column_class),
        lift_rows=sequence_getter(row_class),
    )


@dataclass(frozen=True)
class _Quotient:
    """The orbit LP of a flip group H, with what certifies its lifted optimum.

    ``lp`` is the CF LP on the cosets of H and the orbits of full rows, so
    every objective coefficient is |H|, and row ``k`` has coefficient |H|
    over the orbit size on every coset restricting into its orbit.

    For the certificate, ``generators`` holds ``(column_flip, row_flip)``
    per basis flip ``h`` of H: getters that reorder a vector over global
    assignments by ``g -> g ^ h``, and one over full rows by each row's
    image under ``h``.  ``columns[j]`` is the getter of the full rows that
    the least assignment of coset ``j`` restricts to.
    """

    lp: _ClassLP
    generators: tuple
    columns: tuple


@lru_cache(maxsize=SCENARIO_CACHE_SIZE)
def _flip_group(s: MeasurementScenario, stabilizers: tuple[int, ...]) -> int:
    """H as a bitmask over global flips, ``stabilizers[c]`` as from :func:`_stabilizer`.

    A global flip restricts to context ``c`` as a global assignment does, so
    it fixes every table iff each restriction lies in ``stabilizers[c]``:
    the support scan of the stabiliser pattern.
    """
    return support_mask(PossibilisticModel(s, stabilizers))


@lru_cache(maxsize=SCENARIO_CACHE_SIZE)
def _quotient(s: MeasurementScenario, group: int) -> _Quotient:
    """The orbit LP of ``s`` and its certificate maps for the flips in the bitmask ``group``.

    H is the span of a basis taken from ``group``, so a bitmask that is not
    closed under XOR gets its closure, whose generators the certificate
    then checks.  Cosets are numbered by their least element and row
    orbits by context, then least section: both by first occurrence, as
    :func:`_on_classes` takes them.  With H trivial this is the full LP.
    """
    table = restriction_table(s)  # its size guard runs before any list is built
    span, basis = {0}, []
    for h in range(group.bit_length()):
        if (group >> h) & 1 and h not in span:
            basis.append(h)
            span |= {f ^ h for f in span}
    column_of = [None] * len(table[0])
    cosets = []
    for g in range(len(column_of)):
        if column_of[g] is None:
            for h in span:
                column_of[g ^ h] = len(cosets)
            cosets.append(g)

    rows_of = []  # rows_of[c][sec]: the full row of section sec of context c
    row_of, orbits = [], 0
    for c, proj in enumerate(table):
        # A list, so every getter below holds these int objects, not copies.
        rows = list(range(len(row_of), len(row_of) + s.n_sections(c)))
        rows_of.append(rows)
        flips = {proj[h] for h in span}
        orbit_of = {}
        for sec in range(len(rows)):
            if sec not in orbit_of:
                for f in flips:
                    orbit_of[sec ^ f] = orbits
                orbits += 1
            row_of.append(orbit_of[sec])
    generators = tuple(
        (
            sequence_getter([g ^ h for g in range(len(column_of))]),
            sequence_getter([rows[sec ^ proj[h]] for rows, proj in zip(rows_of, table)
                             for sec in range(len(rows))]),
        )
        for h in basis
    )
    return _Quotient(
        lp=_on_classes(s, row_of, column_of),
        generators=generators,
        columns=tuple(
            sequence_getter([rows[proj[g]] for rows, proj in zip(rows_of, table)]) for g in cosets
        ),
    )


def _certify_lift(m: EmpiricalModel, quotient: _Quotient, x, y, d: int, v: int) -> None:
    """Prove the lifted optimum ``(x, y)`` optimal for the full CF LP of ``m``.

    Everything is an integer over the denominator ``d``: ``x[g]`` is the
    weight of global assignment ``g``, ``y[r]`` the dual of full row ``r``
    and ``v`` the optimum; the right-hand side ``b`` is the numerator rows.
    Each generator of the quotient's group must fix ``b``, ``y`` and ``x``;
    then the full LP's dual row of ``g`` is constant on the coset of ``g``
    and the slack of a primal row on its orbit, so one of each per coset
    and orbit is checked, and both objectives over every lifted entry.
    Raises InternalConsistencyError when the pair proves nothing.
    """
    def fail(what):
        raise InternalConsistencyError(f"lifted CF optimum failed its quotient certificate: {what}")

    b = tuple(chain.from_iterable(m.numerators))
    for column_flip, row_flip in quotient.generators:
        if row_flip(b) != b:
            fail("a generator does not fix the model")
        if row_flip(y) != y:
            fail("the lifted dual is not invariant")
        if column_flip(x) != x:
            fail("the lifted primal is not invariant")
    if d <= 0:
        fail("the denominator is not positive")
    if min(x) < 0 or min(y) < 0:
        fail("negative primal or dual entry")
    matrix = incidence_matrix(m.scenario)
    for r in quotient.lp.row_reps:
        if sum([a * x[g] for g, a in matrix[r]]) > b[r] * d:
            fail("primal row violated")
    if sum(x) != v:
        fail("the primal objective differs from the optimum")
    if sum(map(mul, b, y)) != v:
        fail("the dual objective differs from the optimum")
    for rows_of_g in quotient.columns:
        if sum(rows_of_g(y)) < d:
            fail("dual row violated")


# --- the orbit LP on its coarsest equitable partition --------------------------
#
# A partition of the orbit LP's rows and columns is equitable when b is
# constant on each row class, c on each column class, and for every pair of
# classes (R, C) each row of R has one coefficient sum over C and each column
# of C one coefficient sum over R.  Averaging a point over the column classes
# then keeps it feasible with the same objective, so the LP has an optimum
# constant on the classes: one variable per column class and one row per row
# class (Grohe, Kersting, Mladenov and Selman, "Dimension reduction via colour
# refinement", ESA 2014).  Its dual, divided over each row class, is dual
# feasible for the orbit LP with the same objective, so the lifted pair is an
# optimum that :func:`_certify_lift` checks like any other.


def _classes(signatures) -> list[int]:
    """The class of each signature, equal signatures sharing one, numbered by first occurrence."""
    ids = {}
    return [ids.setdefault(sig, len(ids)) for sig in signatures]


def _equitable_partition(lp: _ClassLP, pattern: tuple[int, ...]):
    """``(row_class, column_class)``: the coarsest equitable partition of orbit LP ``lp`` refining ``pattern``.

    Colour refinement.  Rows start coloured by their ``pattern`` entry and
    their one coefficient, columns alike, since every objective coefficient
    is |H|.  Then each column is coloured by the sorted multiset of its
    rows' colours, and each row by its colour and the sorted multiset of its
    columns' colours, until a round splits no class.  Each round's colours
    refine the last round's, so equal class counts mean a stable partition,
    and a stable one is equitable: a row's coefficient is part of its colour.
    """
    rows = lp.a_le
    row_class = _classes(zip(pattern, [row[0][1] for row in rows]))
    column_class = [0] * len(lp.objective)
    while True:
        seen = [[] for _ in column_class]
        for colour, row in zip(row_class, rows):
            for j, _ in row:
                seen[j].append(colour)
        columns = _classes([tuple(sorted(x)) for x in seen])
        refined = _classes([
            (colour, tuple(sorted([columns[j] for j, _ in row])))
            for colour, row in zip(row_class, rows)
        ])
        if max(refined) == max(row_class) and max(columns) == max(column_class):
            return tuple(refined), tuple(columns)
        row_class, column_class = refined, columns


@lru_cache(maxsize=SCENARIO_CACHE_SIZE)
def _refined(s: MeasurementScenario, group: int, pattern: tuple[int, ...]) -> _ClassLP:
    """The orbit LP of ``_quotient(s, group)`` on its coarsest equitable partition.

    ``pattern`` numbers the orbit rows' right-hand sides by first
    occurrence, so equal entries share a number.  The partition depends on
    nothing else, so every model with one pattern shares one reduced LP,
    checked once.  Its classes of full rows and assignments are the
    partition's composed with the orbits.
    """
    lp = _quotient(s, group).lp
    row_class, column_class = _equitable_partition(lp, pattern)
    return _on_classes(s, lp.lift_rows(row_class), lp.lift_columns(column_class))


def _contextual_fraction_with_witness(m: EmpiricalModel):
    """``(CF, x, den)``: the CF LP solved on flip orbits, its lifted optimum certified in full.

    An orbit LP with at least REFINE_MIN_ENTRIES nonzeros is solved on its
    coarsest equitable partition.  Either LP's optimum, integers over the
    solver's ``den``, is lifted once through that LP's maps, over ``d =
    den * lcm(row_split)``, and certified.  ``x`` is the certified primal
    over global assignments: assignment ``g`` has probability ``x[g] / den``.
    """
    _require_no_signaling(m)
    s = m.scenario
    restriction_table(s)  # its size guard runs before any stabilizer's flip table is built
    group = _flip_group(s, tuple([_stabilizer(row) for row in m.numerators]))
    quotient = _quotient(s, group)
    b = tuple(chain.from_iterable(m.numerators))
    lp = quotient.lp
    if sum(map(len, lp.a_le)) >= REFINE_MIN_ENTRIES:
        lp = _refined(s, group, tuple(_classes([b[r] for r in lp.row_reps])))
    out = maximize(LinearProgram(
        objective=lp.objective, a_le=lp.a_le, b_le=tuple([b[r] for r in lp.row_reps]),
    ))
    if out.status is not LpStatus.OPTIMAL:
        raise InternalConsistencyError(
            f"noncontextual-fraction LP ended {out.status}, expected an optimum"
        )
    scale = lcm(*lp.row_split)
    x = lp.lift_columns([w * scale for w in out.solution])
    y = lp.lift_rows([u * (scale // n) for u, n in zip(out.dual, lp.row_split)])
    d, v = out.den * scale, out.value * scale
    _certify_lift(m, quotient, x, y, d, v)
    den = m.den * d
    return Fraction(den - v, den), x, den


def is_strongly_contextual(m: Union[EmpiricalModel, PossibilisticModel]):
    """Exhaustive route: true iff no global assignment is compatible with every context's support.

    Returns ``(True, None)`` or ``(False, witness)`` with the first compatible
    assignment in canonical order, as its outcome bit tuple.
    """
    p = possibilistic_collapse(m) if isinstance(m, EmpiricalModel) else m
    mask = support_mask(p)
    if mask == 0:
        return True, None
    g = (mask & -mask).bit_length() - 1
    return False, section_values(g, len(p.scenario.observables))


@dataclass(frozen=True)
class AvnCertificate:
    """One violated zero constraint per global assignment.

    ``entries[g]`` is the first (context, section) pair, in canonical order,
    whose probability is zero and whose section is the restriction of global
    assignment ``g``.  Existence for every ``g`` proves that no assignment is
    compatible with the model's support.
    """

    scenario: MeasurementScenario
    entries: tuple[tuple[int, int], ...]

    def to_jsonable(self) -> list[dict]:
        s = self.scenario
        n = len(s.observables)
        out = []
        for g, (c, sec) in enumerate(self.entries):
            out.append(
                {
                    "assignment": _bit_string(g, n),
                    "context": list(s.contexts[c]),
                    "section": _bit_string(sec, len(s.contexts[c])),
                }
            )
        return out


def avn_certificate(m: EmpiricalModel):
    """Map every global assignment to a zero constraint it violates.

    Returns ``(True, certificate)`` when the model is strongly contextual and
    ``(False, witness)`` with a compatible assignment's bit tuple otherwise.
    """
    s = m.scenario
    table = restriction_table(s)
    entries = []
    for g in range(1 << len(s.observables)):
        hit = None
        for c in range(s.n_contexts):
            sec = table[c][g]
            if m.numerators[c][sec] == 0:
                hit = (c, sec)
                break
        if hit is None:
            return False, section_values(g, len(s.observables))
        entries.append(hit)
    return True, AvnCertificate(scenario=s, entries=tuple(entries))


@dataclass(frozen=True)
class ClassificationReport:
    """Joint verdict: contextual fraction, strong contextuality, marginals, AMCC.

    ``witness`` holds the JSON-ready witnesses.  ``avn`` is the zero-constraint
    certificate of a strongly contextual model (None otherwise), checked by
    :func:`classify` but kept as an object: :meth:`to_dict` renders it, under
    the witness key ``"avn"``, only when ``include_avn`` asks for it.
    """

    cf: Fraction
    ncf: Fraction
    strongly_contextual: bool
    maximal_marginal: bool
    amcc: bool
    witness: dict
    avn: Optional[AvnCertificate] = None

    def to_dict(self, include_avn: bool = True) -> dict:
        witness = dict(self.witness)
        if include_avn and self.avn is not None:
            witness["avn"] = self.avn.to_jsonable()
        return {
            "cf": format_rational(self.cf),
            "ncf": format_rational(self.ncf),
            "strongly_contextual": self.strongly_contextual,
            "maximal_marginal": self.maximal_marginal,
            "amcc": self.amcc,
            "witness": witness,
        }


def classify(m: EmpiricalModel) -> ClassificationReport:
    """Full classification with the LP and the exhaustive scan cross-asserted.

    A model is AMCC exactly when it is maximally contextual (CF = 1, which
    coincides with strong contextuality) and all its proper within-context
    marginals are uniform.  Below CF = 1 the witness's ``noncontextual_part``
    is the certified optimum lifted from the flip orbits, read from its
    integer weights: an optimum of the full LP that gives every assignment
    in a coset of H the same weight (the orbit average), which at CF = 0
    still reproduces every row.  When the orbit LP
    was solved on its coarsest equitable partition, that part is also
    constant on each column class of the partition.  With H trivial and no
    refinement it is the full LP's own optimum.
    """
    cf, lp_solution, den = _contextual_fraction_with_witness(m)
    strong, strong_witness = is_strongly_contextual(m)
    if strong != (cf == 1):
        raise InternalConsistencyError(
            f"LP reports CF={format_rational(cf)} but the exhaustive scan "
            f"reports strongly_contextual={strong}"
        )
    maxmarg, marg_witness = is_maximal_marginal(m)

    witness: dict = {}
    if cf != 1:
        # At CF = 0 this global distribution reproduces every row exactly.
        n = len(m.scenario.observables)
        witness["noncontextual_part"] = {
            _bit_string(g, n): format_rational(Fraction(w, den)) for g, w in enumerate(lp_solution) if w
        }
    if marg_witness is not None:
        witness["failing_marginal"] = {
            "context": list(m.scenario.contexts[marg_witness.context]),
            "subset": list(marg_witness.subset),
            "marginal": [format_rational(x) for x in marg_witness.marginal],
        }
    avn = None
    if strong:
        ok, avn = avn_certificate(m)
        if not ok:
            raise InternalConsistencyError(
                "strongly contextual model has no zero-constraint certificate"
            )
    else:
        witness["compatible_assignment"] = "".join(map(str, strong_witness))

    return ClassificationReport(
        cf=cf,
        ncf=1 - cf,
        strongly_contextual=strong,
        maximal_marginal=maxmarg,
        amcc=strong and maxmarg,
        witness=witness,
        avn=avn,
    )


__all__ = [
    "AvnCertificate",
    "ClassificationReport",
    "allowed_mask",
    "avn_certificate",
    "classify",
    "contextual_fraction",
    "global_masks",
    "incidence_matrix",
    "is_strongly_contextual",
    "restriction_table",
    "support_mask",
]
