"""Generators of maximally contextual models.

Two construction routes:

* mod-2 parity systems: one XOR equation per context over its observables.
  GF(2) inconsistency of the system certifies that the induced half-support
  model has no compatible global assignment, and the uniform lift of such a
  pattern is automatically no-signaling with uniform marginals.  Flipping
  the outcomes of a set of observables relabels one lift as another whose
  parity vector differs by an element of the image of the flip map
  GF(2)^observables → GF(2)^contexts, so the enumeration classifies one
  lift per coset of that image.
* free Boolean support choices treated as a constraint-satisfaction
  instance, filtered by the possibilistic no-signaling condition and
  unsatisfiability.  This route also produces asymmetric tables that the
  parity route cannot reach.

Both routes hold each context's support as a section bitmask
(:class:`~amcc.empirical.PossibilisticModel`).

Three exact parametric table families for the (3,2,2) scenario are included,
with 8, 3 and 26 free parameters, each evaluated in integers and no-signaling
by construction.  The 26-parameter table, the Boolean check and the CSP search
read the overlap plans of :func:`~amcc.empirical.is_no_signaling`.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from . import analysis
from .empirical import (
    RATIONAL_DIGIT_LIMIT,
    EmpiricalModel,
    PossibilisticModel,
    _no_signaling,
    _overlap_plans,
    _read,
    exact_rational,
    format_rational,
    lift_uniform,
    make_model,
    support_row,
)
from .errors import (
    IndexOutOfRange,
    InternalConsistencyError,
    LengthMismatch,
    MalformedInput,
    OutOfRange,
    ScenarioMismatch,
    TooLarge,
    TooManyCandidates,
)
from .scenario import (
    SCENARIO_CACHE_SIZE,
    MeasurementScenario,
    bell_scenario,
    bell_token,
    expect_json,
    gf2_back_substitute,
    gf2_eliminate,
    is_bit,
    json_field,
    parity_mask,
    parse_bell_token,
    scenario_from_dict,
    scenario_to_dict,
    section_values,
    shown,
)


#: Guard for enumerate_parity: at most 2**20 parity vectors.
PARITY_ENUMERATION_LIMIT = 20
#: Guard for csp_enumerate_extension: at most 2**24 candidates.
CSP_ENUMERATION_LIMIT = 24
#: Guard for the 8-parameter scans: at most 2**14 points, one CF LP each.
SCAN_POINT_LIMIT = 1 << 14


@dataclass(frozen=True)
class ParitySystem:
    """One XOR equation per context: sum of its observables = parity bit (mod 2).

    Raises LengthMismatch unless there is one parity per context, each a bit (:func:`is_bit`).
    """

    scenario: MeasurementScenario
    parities: tuple[int, ...]

    def __post_init__(self):
        if len(self.parities) != self.scenario.n_contexts:
            raise LengthMismatch(
                f"{len(self.parities)} parity bits for {self.scenario.n_contexts} contexts"
            )
        if not all(map(is_bit, self.parities)):
            raise LengthMismatch("parities must be bits")

    def coefficient_mask(self, c: int) -> int:
        """Bitmask (over observable indices) of the variables in equation ``c``."""
        mask = 0
        for label in self.scenario.context(c):
            mask |= 1 << self.scenario.observables.index(label)
        return mask


def parity_system(
    s: MeasurementScenario, parities: Sequence[int]
) -> ParitySystem:
    """Build the per-context XOR system with the given parity bits."""
    return ParitySystem(scenario=s, parities=tuple(parities))


def _combo_indices(combo: int) -> tuple[int, ...]:
    return tuple(i for i in range(combo.bit_length()) if (combo >> i) & 1)


@lru_cache(maxsize=SCENARIO_CACHE_SIZE)
def _gf2_basis(s: MeasurementScenario):
    """:func:`gf2_eliminate` of the context coefficient masks, shared by every parity vector of ``s``."""
    ps = ParitySystem(s, (0,) * s.n_contexts)
    return gf2_eliminate([ps.coefficient_mask(c) for c in range(s.n_contexts)])


def parity_consistent(ps: ParitySystem):
    """Decide the XOR system by Gaussian elimination over GF(2).

    Returns ``(True, solution)`` with one satisfying bit per observable
    (free variables set to 0), or ``(False, certificate)`` where the
    certificate is a tuple of equation indices whose mod-2 sum is the
    contradiction 0 = 1: the first residual combination of the scenario's
    elimination on which the parities are odd.
    """
    pivots, residual = _gf2_basis(ps.scenario)
    rhs = sum(bit << c for c, bit in enumerate(ps.parities))
    for combo in residual:
        if (combo & rhs).bit_count() & 1:
            return False, _combo_indices(combo)
    assignment = gf2_back_substitute(pivots, rhs)
    n = len(ps.scenario.observables)
    return True, tuple((assignment >> i) & 1 for i in range(n))


def parity_to_possibilistic(ps: ParitySystem) -> PossibilisticModel:
    """Support = the sections of each context whose outcome XOR equals P_c.

    Every context keeps exactly half of its sections (a single-observable
    context keeps the one section equal to its parity bit).
    """
    masks = tuple(parity_mask(len(ctx), p) for ctx, p in zip(ps.scenario.contexts, ps.parities))
    return PossibilisticModel(scenario=ps.scenario, masks=masks)


def boolean_no_signaling(b: PossibilisticModel):
    """Possibilistic no-signaling: support projections agree on overlaps.

    The walk of :func:`~amcc.empirical.is_no_signaling`, with ``any`` of the
    0/1 support entries in place of the sum.  Returns ``(True, None)`` or
    ``(False, witness)`` with the first failing context pair in canonical
    order; the witness's marginals are the two projected supports as 0/1 rows.
    """
    s = b.scenario
    rows = [support_row(mask, s.n_sections(c)) for c, mask in enumerate(b.masks)]
    return _no_signaling(s, rows, any, int)


# --- parity enumeration ------------------------------------------------------


@dataclass(frozen=True)
class ParityVerdict:
    parities: tuple[int, ...]
    consistent: bool
    cf: Optional[Fraction]
    amcc: Optional[bool]


@dataclass(frozen=True)
class ParityEnumeration:
    total: int
    consistent_count: int
    amcc_count: int
    verdicts: tuple[ParityVerdict, ...]

    def to_dict(self, include_verdicts: bool = False) -> dict:
        out = {
            "total": self.total,
            "consistent": self.consistent_count,
            "amcc": self.amcc_count,
        }
        if include_verdicts:
            out["verdicts"] = [
                {
                    "parities": list(v.parities),
                    "consistent": v.consistent,
                    "cf": None if v.cf is None else format_rational(v.cf),
                    "amcc": v.amcc,
                }
                for v in self.verdicts
            ]
        return out


def _check_jobs(jobs) -> None:
    """MalformedInput unless ``jobs`` is an int, not a bool, of at least 1."""
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise MalformedInput(f"jobs must be an int of at least 1, got {shown(jobs)}")


def _map_chunks(worker, args, items, jobs):
    """``worker(*args, chunk)`` over ``items`` cut into consecutive slices.

    Uses ``min(jobs, os.cpu_count(), len(items))`` chunks, at least one,
    capped before any slice is cut; one chunk runs in this process, more go
    to a process pool with one worker per chunk.  Returns the chunk results
    in order.  ``jobs`` was checked by :func:`_check_jobs`.
    """
    jobs = max(1, min(jobs, os.cpu_count() or 1, len(items)))
    if jobs == 1:
        return [worker(*args, items)]
    bounds = [len(items) * k // jobs for k in range(jobs + 1)]
    with multiprocessing.Pool(processes=jobs) as pool:
        return pool.starmap(
            worker, [(*args, items[bounds[k]:bounds[k + 1]]) for k in range(jobs)]
        )


def _classify_lifts(s: MeasurementScenario, indices) -> list:
    """``(cf, amcc)`` of the uniform lift of each parity vector, named by enumeration index."""
    out = []
    for i in indices:
        ps = ParitySystem(s, section_values(i, s.n_contexts))
        report = analysis.classify(lift_uniform(parity_to_possibilistic(ps)))
        out.append((report.cf, report.amcc))
    return out


def enumerate_parity(s: MeasurementScenario, jobs: int = 1) -> ParityEnumeration:
    """Classify every parity vector of a scenario.

    Consistent vectors, the image of the flip map
    δ: GF(2)^observables → GF(2)^contexts, are counted; inconsistent ones
    get the verdict of their uniform lift.  Flipping the outcomes of the
    observables in ``v`` maps the lift of ``p`` onto the lift of
    ``p ⊕ δ(v)``, and that relabelling keeps CF, strong contextuality and
    maximal marginals, so all vectors of one coset of the image share a
    verdict.  A vector's syndrome, its parities against the residual
    combinations of :func:`_gf2_basis`, names its coset and is zero exactly
    on consistent vectors; the first vector of each nonzero syndrome is
    classified, those representatives split across ``jobs`` workers (capped
    at the CPU count).  The verdict list is in lexicographic parity order
    and independent of ``jobs``.  A ``jobs`` that is not an int of at
    least 1 raises MalformedInput first.
    """
    _check_jobs(jobs)
    m = s.n_contexts
    if m > PARITY_ENUMERATION_LIMIT:
        raise TooLarge(f"2**{m} parity vectors exceed the 2**{PARITY_ENUMERATION_LIMIT} guard")
    total = 1 << m
    _, residual = _gf2_basis(s)
    # Context c is bit m - 1 - c of the index (section_values is big-endian).
    checks = [sum(1 << (m - 1 - c) for c in _combo_indices(combo)) for combo in residual]
    syndromes = [
        sum(((i & check).bit_count() & 1) << k for k, check in enumerate(checks))
        for i in range(total)
    ]
    first = {}  # nonzero syndrome -> its first index, in index order
    for i, syndrome in enumerate(syndromes):
        if syndrome:
            first.setdefault(syndrome, i)
    parts = _map_chunks(_classify_lifts, (s,), list(first.values()), jobs)
    verdict_of = {0: (True, None, None)}  # syndrome -> (consistent, cf, amcc)
    for syndrome, (cf, amcc) in zip(first, (v for part in parts for v in part)):
        verdict_of[syndrome] = (False, cf, amcc)
    verdicts = tuple(
        ParityVerdict(section_values(i, m), *verdict_of[syndrome])
        for i, syndrome in enumerate(syndromes)
    )
    return ParityEnumeration(
        total=total,
        consistent_count=sum(1 for v in verdicts if v.consistent),
        amcc_count=sum(1 for v in verdicts if v.amcc),
        verdicts=verdicts,
    )


# --- CSP extension enumeration ----------------------------------------------


class CspCandidate(NamedTuple):
    """A passing candidate: its enumeration index and per-context support masks."""

    index: int
    support_masks: tuple[int, ...]


@dataclass(frozen=True)
class CspEnumeration:
    candidates: int
    passing: tuple[CspCandidate, ...]

    @property
    def passing_count(self) -> int:
        return len(self.passing)

    def to_dict(self) -> dict:
        return {"candidates": self.candidates, "ns_and_unsat": self.passing_count}


def candidate_model(
    s: MeasurementScenario, support_masks: Sequence[int]
) -> PossibilisticModel:
    """Materialize a candidate's support masks as a possibilistic model."""
    return PossibilisticModel(s, tuple(support_masks))


class _CspSearch:
    """Depth-first search over the candidates of the CSP scan.

    Every context has a list of candidate support masks: a fixed context
    has one, its base mask; an extendable one has its base mask plus each
    subset of its absent sections, local choice ``k`` adding the absent
    sections selected by the bits of ``k``.  Candidate ``index`` is the
    mixed-radix number of the local choices, the last context varying
    fastest: the ``index``-th tuple of ``itertools.product`` over the lists.

    Every context is one level of the search: the fixed contexts first, then
    the extendable ones in context order, so the search visits candidates in
    index order.  No-signaling on a pair of contexts is checked when the
    later of its two levels is chosen: each level's choices are grouped by
    their projections onto its earlier partners, read through the pair's
    overlap plans as :func:`boolean_no_signaling` reads them, and one lookup
    with the earlier choices' projections yields the compatible ones.  A leaf
    passes when the AND of its contexts' allowed global assignments is empty.
    """

    def __init__(self, base: PossibilisticModel, extendable: tuple[int, ...]):
        s = base.scenario
        n_absent = {c: s.n_sections(c) - base.masks[c].bit_count() for c in extendable}
        bits = sum(n_absent.values())
        if bits > CSP_ENUMERATION_LIMIT:
            raise TooManyCandidates(
                f"2**{bits} candidates exceed the 2**{CSP_ENUMERATION_LIMIT} guard"
            )
        self.total = 1 << bits
        choices = []
        for c, mask in enumerate(base.masks):
            width = s.n_sections(c) if c in n_absent else 0
            secs = [sec for sec in range(width) if not (mask >> sec) & 1]
            choices.append([
                mask | sum(1 << sec for bit, sec in enumerate(secs) if (k >> bit) & 1)
                for k in range(1 << len(secs))
            ])
        order = sorted(range(s.n_contexts), key=n_absent.__contains__)  # fixed ones first
        depth_of = {c: d for d, c in enumerate(order)}
        partners = [[] for _ in choices]  # (earlier context, its projections, own projections)
        rows = [{m: support_row(m, s.n_sections(c)) for m in ms} for c, ms in enumerate(choices)]
        ids = {}  # each distinct projection as a small int, so the lookups hash ints
        for i, j, _, plan_i, plan_j in _overlap_plans(s):
            proj = {
                c: {m: ids.setdefault(_read(plan, row, any), len(ids)) for m, row in rows[c].items()}
                for c, plan in ((i, plan_i), (j, plan_j))
            }
            first, later = sorted((i, j), key=depth_of.__getitem__)
            partners[later].append((first, proj[first], proj[later]))
        # One level per context: (context, size of each choice's subtree,
        # its earlier partners with their projection of each mask, and its
        # choices (index offset, mask, allowed assignments) in ascending
        # order, grouped by their projections onto those partners).
        self.levels = []
        stride = 1
        for c in reversed(order):
            groups = {}
            for k, mask in enumerate(choices[c]):
                key = tuple(own[mask] for _, _, own in partners[c])
                option = (k * stride, mask, analysis.allowed_mask(s, c, mask))
                groups.setdefault(key, []).append(option)
            earlier = tuple((e, proj) for e, proj, _ in partners[c])
            self.levels.append((c, stride, earlier, groups))
            stride *= len(choices[c])
        self.levels.reverse()

    def scan(self, indices: range) -> list:
        """The passing candidates with index in ``indices``, in index order."""
        passing = []
        self._descend(0, 0, -1, [0] * len(self.levels), indices, passing)
        return passing

    def _descend(self, depth, start, acc, masks, indices, passing):
        """Append the passing candidates below one node, whose lowest index is ``start``.

        ``masks`` holds the support mask chosen for each context of the first
        ``depth`` levels and ``acc`` the AND of their allowed assignments.
        """
        if depth == len(self.levels):  # a leaf; acc != 0 means satisfiable
            if not acc:
                passing.append(CspCandidate(start, tuple(masks)))
            return
        c, stride, earlier, groups = self.levels[depth]
        key = tuple([proj[masks[e]] for e, proj in earlier])
        for offset, mask, allowed in groups.get(key, ()):
            low = start + offset
            if low >= indices.stop:
                break
            if low + stride <= indices.start:
                continue  # the whole subtree lies below the range
            masks[c] = mask
            self._descend(depth + 1, low, acc & allowed, masks, indices, passing)


def csp_enumerate_extension(
    base: PossibilisticModel,
    extendable_contexts: Sequence[int],
    jobs: int = 1,
) -> CspEnumeration:
    """Scan every way of adding absent sections to the extendable contexts.

    Candidates are counted as passing when they satisfy Boolean no-signaling
    and are unsatisfiable as constraint instances.  Iteration order fixes the
    candidate index: extendable contexts ascending, the last one varying
    fastest; results are independent of ``jobs`` (capped at the CPU count)
    and chunking.  Each context index is checked by
    :meth:`~amcc.scenario.MeasurementScenario.context` before any is used,
    after ``jobs``, which must be an int of at least 1 (else MalformedInput).
    """
    _check_jobs(jobs)
    extendable = tuple(extendable_contexts)
    for c in extendable:
        base.scenario.context(c)
    extendable = tuple(sorted(set(extendable)))
    search = _CspSearch(base, extendable)
    parts = _map_chunks(search.scan, (), range(search.total), jobs)
    return CspEnumeration(
        candidates=search.total,
        passing=tuple(cand for part in parts for cand in part),
    )


#: The shipped CSP base pattern: contexts 0/3/5/6 are parity halves
#: (odd, even, even, even) and contexts 1/2/4/7 are "first observable = 0"
#: halves ("low", sections 0..3), which are the extendable ones.
CSP_PRESETS = {
    "eq40": ((1, "low", "low", 0, "low", 0, 0, "low"), (1, 2, 4, 7)),
}


def csp_extension_preset(name: str = "eq40"):
    """A named (base model, extendable contexts) pair for the CSP scan."""
    if name not in CSP_PRESETS:
        raise IndexOutOfRange(
            f"unknown CSP preset {name!r}; available: {sorted(CSP_PRESETS)}"
        )
    pattern, extendable = CSP_PRESETS[name]
    masks = [0b00001111 if p == "low" else parity_mask(3, p) for p in pattern]
    return candidate_model(bell_scenario(3, 2), masks), extendable


# --- parametric families ------------------------------------------------------


def _model_322(rows, den: int) -> EmpiricalModel:
    """The (3,2,2) model of integer rows over ``den``; OutOfRange at the first entry past [0, 1]."""
    for c, row in enumerate(rows):
        for sec, x in enumerate(row):
            if not 0 <= x <= den:
                entry = format_rational(Fraction(x, den))
                raise OutOfRange(f"entry ({c},{sec}) evaluates to {entry}")
    return make_model(bell_scenario(3, 2), rows, den)


def eight_param_family(params: Sequence[Union[Fraction, int, str]]) -> EmpiricalModel:
    """The symmetric 8-parameter (3,2,2) family with maximal marginals built in.

    Row ``c`` puts ``p_c`` on even-parity sections and ``1/4 - p_c`` on
    odd-parity sections, so every within-context marginal is uniform, and the
    table no-signaling by construction, for any parameters in [0, 1/4].
    """
    values = [exact_rational(p) for p in params]
    if len(values) != 8:
        raise LengthMismatch(f"need 8 parameters, got {len(values)}")
    den = math.lcm(4, *(p.denominator for p in values))
    even = support_row(parity_mask(3, 0), 8)
    rows = []
    for i, p in enumerate(values, start=1):
        n = p.numerator * (den // p.denominator)
        if not 0 <= n <= den // 4:
            raise OutOfRange(f"p{i} = {format_rational(p)} is outside [0, 1/4]")
        rows.append(tuple(n if bit else den // 4 - n for bit in even))
    return make_model(bell_scenario(3, 2), rows, den)


def three_param_family(
    p1: Union[Fraction, int, str],
    p2: Union[Fraction, int, str],
    p3: Union[Fraction, int, str],
) -> EmpiricalModel:
    """The asymmetric 3-parameter (3,2,2) family.

    The table is evaluated in integers over the lcm of 2 and the parameter
    denominators and is no-signaling by construction, so a choice is valid
    exactly when every entry lands in [0, 1] (else OutOfRange).  The family
    is strongly contextual inside the bounds 0 <= p2 < 1/2,
    p2 < p1 < p2/2 + 1/4, 0 < p3 < min(p1, 1/2 - p1, 2*p1 - p2), and turns
    symmetric (maximal marginals) at p1 = p3 = 1/4, p2 = 0.
    """
    p1, p2, p3 = exact_rational(p1), exact_rational(p2), exact_rational(p3)
    den = math.lcm(2, p1.denominator, p2.denominator, p3.denominator)
    n1, n2, n3 = (p.numerator * (den // p.denominator) for p in (p1, p2, p3))
    h = den // 2
    rows = (
        (0, n1, n1, 0, h - n1, 0, 0, h - n1),
        (n2, n1 - n2, n3, n1 - n3, h - n1, 0, 0, h - n1),
        (n2, n3, n1 - n2, n1 - n3, h - n1, 0, 0, h - n1),
        (n2 + n3, 0, 0, 2 * n1 - n2 - n3, 0, h - n1, h - n1, 0),
        (h - 2 * n1 + n2, n1, n1, h - n1 - n3, n1 - n2, 0, 0, n3),
        (h - n1 + n2, 0, 0, h - n3, 0, n1 - n2, n3, 0),
        (h - n1 + n2, 0, 0, h - n3, 0, n3, n1 - n2, 0),
        (n2, h - n1, h - n1, n1 - n3, n3, 0, 0, n1 - n2),
    )
    return _model_322(rows, den)


#: Table cell (row, column) holding each of the 26 free parameters.
PARAM_CELLS_26 = {
    1: (0, 0), 2: (0, 1), 3: (0, 2), 4: (0, 3), 5: (0, 4), 6: (0, 5), 7: (0, 6),
    8: (3, 4), 9: (1, 0), 10: (4, 0), 11: (1, 2), 12: (4, 1), 13: (1, 4),
    14: (4, 2), 15: (1, 6), 16: (4, 3), 17: (2, 0), 18: (2, 1), 19: (5, 0),
    20: (5, 2), 21: (2, 4), 22: (2, 5), 23: (6, 0), 24: (6, 1), 25: (3, 0),
    26: (7, 0),
}


@lru_cache(maxsize=1)
def _table_26_steps() -> tuple:
    """How the 38 other cells of the 26-parameter table follow from the parameter cells.

    Cell ``8 * c + sec`` is section ``sec`` of context ``c``.  The equations,
    ``{cell: ±1}`` maps, are the row normalizations (sum ``den``) and the
    equalities of the overlap plans of ``bell_scenario(3, 2)`` (sum 0).  Each
    step ``(cell, unit, rest)`` solves the one unknown cell of an equation as
    ``unit * den + Σ coef * x`` over the ``(cell, coef)`` pairs of ``rest``.
    Raises InternalConsistencyError if some cell is left unsolved.
    """
    equations = [(dict.fromkeys(range(8 * c, 8 * c + 8), 1), 1) for c in range(8)]
    for a, b, _, plan_a, plan_b in _overlap_plans(bell_scenario(3, 2)):
        for pick_a, pick_b in zip(plan_a, plan_b):
            terms = {8 * a + sec: 1 for sec in pick_a(range(8))}
            equations.append(({**terms, **{8 * b + sec: -1 for sec in pick_b(range(8))}}, 0))
    known = {8 * row + col for row, col in PARAM_CELLS_26.values()}
    steps = []
    for _ in range(64 - len(known)):
        solvable = [(terms, unit) for terms, unit in equations if len(terms.keys() - known) == 1]
        if not solvable:
            raise InternalConsistencyError(
                f"{64 - len(known)} cells of the 26-parameter table follow from no equation"
            )
        terms, unit = solvable[0]
        (cell,) = terms.keys() - known
        sign = terms[cell]
        rest = tuple((k, -sign * coef) for k, coef in terms.items() if k != cell)
        steps.append((cell, sign * unit, rest))
        known.add(cell)
    return tuple(steps)


def twentysix_param_family(params: Sequence[Union[Fraction, int, str]]) -> EmpiricalModel:
    """The full 26-parameter no-signaling (3,2,2) table.

    Parameter ``i`` sits at ``PARAM_CELLS_26[i]`` and the other cells follow
    by :func:`_table_26_steps`, in integers over the lcm of the parameter
    denominators, so the table is no-signaling by construction.  A choice is
    valid exactly when every entry lands in [0, 1] (else OutOfRange).
    """
    values = [exact_rational(p) for p in params]
    if len(values) != 26:
        raise LengthMismatch(f"need 26 parameters, got {len(values)}")
    den = math.lcm(*(p.denominator for p in values))
    cells = [0] * 64
    for i, p in enumerate(values, start=1):
        row, col = PARAM_CELLS_26[i]
        cells[8 * row + col] = p.numerator * (den // p.denominator)
    for cell, unit, rest in _table_26_steps():
        cells[cell] = unit * den + sum([coef * cells[k] for k, coef in rest])
    return _model_322([cells[8 * c:8 * c + 8] for c in range(8)], den)


def twentysix_params_from_model(m: EmpiricalModel) -> tuple[Fraction, ...]:
    """The 26 parameter cells of a model on ``bell_scenario(3, 2)``; ScenarioMismatch otherwise."""
    if m.scenario != bell_scenario(3, 2):
        raise ScenarioMismatch("the 26 parameters are cells of a table on bell_scenario(3, 2)")
    cells = (PARAM_CELLS_26[i] for i in range(1, 27))
    return tuple(Fraction(m.numerators[row][col], m.den) for row, col in cells)


# --- parameter scans ----------------------------------------------------------


@dataclass(frozen=True)
class ScanPoint:
    params: tuple[Fraction, ...]
    cf: Fraction


@dataclass(frozen=True)
class ScanReport:
    points: tuple[ScanPoint, ...]
    histogram: tuple[tuple[Fraction, int], ...]

    def to_dict(self, include_points: bool = False) -> dict:
        out = {
            "points": len(self.points),
            "histogram": {
                format_rational(cf): count for cf, count in self.histogram
            },
        }
        if include_points:
            out["cf"] = [
                {
                    "params": [format_rational(p) for p in pt.params],
                    "cf": format_rational(pt.cf),
                }
                for pt in self.points
            ]
        return out


def _require_scan_size(count: int) -> None:
    if count > SCAN_POINT_LIMIT:
        raise TooLarge(f"{count} scan points exceed the {SCAN_POINT_LIMIT} guard")


def _scan_points(points) -> ScanReport:
    results = []
    counts: dict[Fraction, int] = {}
    for params in points:
        model = eight_param_family(params)
        cf = analysis.contextual_fraction(model)
        results.append(ScanPoint(params=tuple(params), cf=cf))
        counts[cf] = counts.get(cf, 0) + 1
    histogram = tuple(sorted(counts.items()))
    return ScanReport(points=tuple(results), histogram=histogram)


def _parameter_index(key) -> int:
    """A 1-based parameter index: an int (not a bool) or an ASCII decimal string.

    Anything else, a string of more than RATIONAL_DIGIT_LIMIT digits
    included, raises MalformedInput, so a float or a bool is never truncated
    onto another parameter; an index outside 1..8 raises IndexOutOfRange.
    """
    if isinstance(key, str) and key.isascii() and key.isdigit() and len(key) <= RATIONAL_DIGIT_LIMIT:
        key = int(key)
    if not isinstance(key, int) or isinstance(key, bool):
        raise MalformedInput(
            f"parameter index must be an int or a decimal string, got {shown(key)}"
        )
    if not 1 <= key <= 8:
        raise IndexOutOfRange(f"parameter index {shown(key)} not in 1..8")
    return key


def scan_eight_param(
    grid: Sequence[Union[Fraction, int, str]],
    fixed: Optional[Mapping[Union[int, str], Union[Fraction, int, str]]] = None,
) -> ScanReport:
    """Contextual fraction over a grid of 8-parameter family instances.

    ``fixed`` pins parameters to single values, keyed by 1-based index (an
    int or an ASCII decimal string; any other key, or an index given twice,
    raises MalformedInput); every unfixed parameter ranges over ``grid``.
    Points are visited in lexicographic order with the last parameter
    varying fastest.  Raises TooLarge above SCAN_POINT_LIMIT points before
    evaluating any.
    """
    grid_values = [exact_rational(v) for v in grid]
    pinned = {}
    for key, value in (fixed or {}).items():
        k = _parameter_index(key)
        if k in pinned:
            raise MalformedInput(f"parameter {k} is pinned more than once")
        pinned[k] = exact_rational(value)
    axes = [
        [pinned[i]] if i in pinned else grid_values for i in range(1, 9)
    ]
    _require_scan_size(math.prod(len(axis) for axis in axes))
    return _scan_points(itertools.product(*axes))


def scan_eight_param_pairs(
    values: Sequence[Union[Fraction, int, str]]
) -> ScanReport:
    """CF over all placements of two parameters from ``values``, the rest 0.

    Visits position pairs (i, j), i < j, in lexicographic order with each
    pair taking every value combination from ``values`` x ``values``.
    Raises TooLarge above SCAN_POINT_LIMIT points before evaluating any.
    """
    vals = [exact_rational(v) for v in values]
    _require_scan_size(math.comb(8, 2) * len(vals) ** 2)
    points = []
    for i, j in itertools.combinations(range(8), 2):
        for vi, vj in itertools.product(vals, repeat=2):
            params = [Fraction(0)] * 8
            params[i] = vi
            params[j] = vj
            points.append(tuple(params))
    return _scan_points(points)


# --- parity preset files -------------------------------------------------------


def parity_preset_to_dict(ps: ParitySystem) -> dict:
    """Preset JSON: {"scenario": "bell-3-2-2", "parities": [...]} (dict for general covers)."""
    token = bell_token(ps.scenario)
    return {
        "scenario": token if token else scenario_to_dict(ps.scenario),
        "parities": list(ps.parities),
    }


def parity_preset_from_dict(data: dict) -> ParitySystem:
    expect_json(data, dict, "a parity preset")
    raw = json_field(data, "scenario")
    s = parse_bell_token(raw) if isinstance(raw, str) else scenario_from_dict(raw)
    return parity_system(s, expect_json(json_field(data, "parities"), list, "parities"))
