"""Contextuality decisions for no-signaling empirical models.

Two independent decision routes are implemented and cross-checked:

* an exact linear program over the incidence matrix (what is the largest
  noncontextual weight? the model is contextual iff it is below 1, and at
  weight 1 the optimum is a global distribution reproducing every row), and
* an exhaustive scan of global assignments against the support pattern
  (is there an assignment compatible with every context's support?).

The LP is solved on orbits of the group H of global outcome flips that fix
every context table: one column per coset of H, one row per orbit of
(context, section) rows.  A global flip restricts to a context exactly as a
global assignment does, so H is the support scan run on the pattern of
per-context stabilisers.  The optimum is lifted back (each assignment takes
its coset's weight, each row its orbit's dual divided by the orbit size)
and the lifted pair must pass :func:`~amcc.ratlp.certify` on the full LP
from :func:`incidence_matrix`; that check, not the reduction, decides.  With
H trivial the orbit LP is the full LP column for column.

``classify`` runs both routes and raises ``InternalConsistencyError`` if they
ever disagree, rather than returning a silently wrong verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Union

from .empirical import (
    EmpiricalModel,
    PossibilisticModel,
    format_rational,
    is_maximal_marginal,
    is_no_signaling,
    possibilistic_collapse,
)
from .errors import InternalConsistencyError, SignalingInput, TooLarge
from .ratlp import LinearProgram, LpStatus, certify, maximize
from .scenario import MeasurementScenario, projection, section_values

ONE = Fraction(1)

#: Hard cap on the entries of the full incidence LP, (context, section) rows
#: times global assignments; bell-5-2 has exactly this many.
LP_ENTRY_LIMIT = 1 << 20


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def incidence_matrix(s: MeasurementScenario) -> tuple[tuple[int, ...], ...]:
    """The 0/1 incidence matrix as a tuple of rows (cached per scenario).

    Rows are the (context, section) pairs in canonical order, columns the
    global assignments; entry ``[r][g]`` is 1 iff assignment ``g`` restricts
    to row ``r``'s section, so every column has exactly one 1 per context.
    """
    rows = []
    for c, table in enumerate(restriction_table(s)):
        for sec in range(s.n_sections(c)):
            rows.append(tuple(1 if t == sec else 0 for t in table))
    return tuple(rows)


def _assignment_vector(m: EmpiricalModel) -> list[Fraction]:
    v = []
    for row in m.tables:
        v.extend(row)
    return v


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
    s = p.scenario
    acc = (1 << (1 << len(s.observables))) - 1
    for c, sections in enumerate(p.masks):
        acc &= allowed_mask(s, c, sections)
        if acc == 0:
            break
    return acc


def _bit_string(idx: int, width: int) -> str:
    """The outcome bits of section ``idx`` of a ``width``-observable domain, as a string."""
    return "".join(map(str, section_values(idx, width)))


def contextual_fraction(m: EmpiricalModel) -> Fraction:
    """CF = 1 - max{ sum(d) : M d <= v, d >= 0 }, exactly."""
    cf, _ = _contextual_fraction_with_witness(m)
    return cf


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
    key = tuple([(v.numerator, v.denominator) for v in row])
    out = 0
    for f, flip in enumerate(_section_flips(len(row).bit_length() - 1)):
        if flip(key) == key:
            out |= 1 << f
    return out


@dataclass(frozen=True)
class _OrbitLp:
    """The CF LP restricted to H-invariant points, with the maps that lift it back.

    Column ``j`` is the common weight of the assignments in the ``j``-th
    coset of H, so its objective coefficient is ``order`` = |H|.  Row ``k``
    is the average of the rows in one orbit R, whose right-hand side is the
    table entry at ``row_reps[k]``; scaled by |R| it has coefficient
    ``order // row_size[k]`` on every coset restricting into R.
    ``column_of[g]`` and ``row_of[r]`` give the coset of assignment ``g`` and
    the orbit of full row ``r``.
    """

    order: int
    a_le: tuple[tuple[int, ...], ...]
    row_reps: tuple[tuple[int, int], ...]
    row_size: tuple[int, ...]
    column_of: tuple[int, ...]
    row_of: tuple[int, ...]


@lru_cache(maxsize=4096)
def _flip_group(s: MeasurementScenario, stabilizers: tuple[int, ...]) -> int:
    """H as a bitmask over global flips, ``stabilizers[c]`` as from :func:`_stabilizer`.

    A global flip restricts to context ``c`` as a global assignment does, so
    it fixes every table iff each restriction lies in ``stabilizers[c]``:
    the support scan of the stabiliser pattern.
    """
    return support_mask(PossibilisticModel(s, stabilizers))


@lru_cache(maxsize=256)
def _orbit_lp(s: MeasurementScenario, group: int) -> _OrbitLp:
    """The orbit LP of ``s`` for the flip group H with :func:`_flip_group` bitmask ``group``.

    Cosets are numbered by their least element (walking ``g`` upward, each
    ``g ^ h`` for ``h`` in H joins the next new coset) and row orbits by
    context, then least section.  With H trivial this is the full LP.
    """
    members = [h for h in range(group.bit_length()) if (group >> h) & 1]
    column_of = [None] * (1 << len(s.observables))
    cosets = []
    for g in range(len(column_of)):
        if column_of[g] is None:
            for h in members:
                column_of[g ^ h] = len(cosets)
            cosets.append(g)

    order = len(members)
    table = restriction_table(s)
    a_le, row_reps, row_size, row_of = [], [], [], []
    for c, proj in enumerate(table):
        span = {proj[h] for h in members}
        orbit_of = {}
        for sec in range(s.n_sections(c)):
            if sec not in orbit_of:
                for f in span:
                    orbit_of[sec ^ f] = len(row_reps)
                row_reps.append((c, sec))
                row_size.append(len(span))
            row_of.append(orbit_of[sec])
        coef = order // len(span)
        hits = [orbit_of[proj[rep]] for rep in cosets]
        for k in range(len(a_le), len(row_reps)):
            a_le.append(tuple(coef if hit == k else 0 for hit in hits))
    return _OrbitLp(
        order=order,
        a_le=tuple(a_le),
        row_reps=tuple(row_reps),
        row_size=tuple(row_size),
        column_of=tuple(column_of),
        row_of=tuple(row_of),
    )


def _contextual_fraction_with_witness(m: EmpiricalModel):
    """``(CF, optimum)``: the CF LP solved on flip orbits, its lifted optimum certified in full."""
    _require_no_signaling(m)
    s = m.scenario
    orbits = _orbit_lp(s, _flip_group(s, tuple([_stabilizer(row) for row in m.tables])))
    out = maximize(LinearProgram(
        objective=(orbits.order,) * len(orbits.a_le[0]),
        a_le=orbits.a_le,
        b_le=tuple([m.tables[c][sec] for c, sec in orbits.row_reps]),
    ))
    if out.status is not LpStatus.OPTIMAL:
        raise InternalConsistencyError(
            f"noncontextual-fraction LP ended {out.status}, expected an optimum"
        )
    solution = tuple([out.solution[j] for j in orbits.column_of])
    shares = [y / size if y else y for y, size in zip(out.dual, orbits.row_size)]
    dual = tuple([shares[k] for k in orbits.row_of])
    full = LinearProgram(
        objective=(1,) * len(solution),
        a_le=incidence_matrix(s),
        b_le=tuple(_assignment_vector(m)),
    )
    certify(full, out.value, solution, dual)
    return ONE - out.value, solution


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
            if m.tables[c][sec] == 0:
                hit = (c, sec)
                break
        if hit is None:
            return False, section_values(g, len(s.observables))
        entries.append(hit)
    return True, AvnCertificate(scenario=s, entries=tuple(entries))


@dataclass(frozen=True)
class ClassificationReport:
    """Joint verdict: contextual fraction, strong contextuality, marginals, AMCC."""

    cf: Fraction
    ncf: Fraction
    strongly_contextual: bool
    maximal_marginal: bool
    amcc: bool
    witness: dict

    def to_dict(self, include_avn: bool = True) -> dict:
        witness = dict(self.witness)
        if not include_avn:
            witness.pop("avn", None)
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
    is the optimum lifted from the flip orbits: an optimum of the full LP
    that gives every assignment in a coset of H the same weight (the orbit
    average), which at CF = 0 still reproduces every row.  With H trivial it
    is the full LP's own optimum.
    """
    cf, lp_solution = _contextual_fraction_with_witness(m)
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
            _bit_string(g, n): format_rational(w) for g, w in enumerate(lp_solution) if w != 0
        }
    if marg_witness is not None:
        witness["failing_marginal"] = {
            "context": list(m.scenario.contexts[marg_witness.context]),
            "subset": list(marg_witness.subset),
            "marginal": [format_rational(x) for x in marg_witness.marginal],
        }
    if strong:
        ok, cert = avn_certificate(m)
        if not ok:
            raise InternalConsistencyError(
                "strongly contextual model has no zero-constraint certificate"
            )
        witness["avn"] = cert.to_jsonable()
    else:
        witness["compatible_assignment"] = "".join(map(str, strong_witness))

    report = ClassificationReport(
        cf=cf,
        ncf=ONE - cf,
        strongly_contextual=strong,
        maximal_marginal=maxmarg,
        amcc=strong and maxmarg,
        witness=witness,
    )
    if report.cf + report.ncf != 1 or report.amcc != (
        report.strongly_contextual and report.maximal_marginal
    ):
        raise InternalConsistencyError("classification report violates its invariants")
    return report


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
