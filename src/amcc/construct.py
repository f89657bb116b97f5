"""Generators of maximally contextual models.

Two construction routes:

* mod-2 parity systems: one XOR equation per context over its observables.
  GF(2) inconsistency of the system certifies that the induced half-support
  model has no compatible global assignment, and the uniform lift of such a
  pattern is automatically no-signaling with uniform marginals.
* free Boolean support choices treated as a constraint-satisfaction
  instance, filtered by the possibilistic no-signaling condition and
  unsatisfiability.  This route also produces asymmetric tables that the
  parity route cannot reach.

Three exact parametric table families for the (3,2,2) scenario are included,
with 8, 3 and 26 free parameters.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from . import analysis
from .empirical import (
    EmpiricalModel,
    PossibilisticModel,
    format_rational,
    lift_uniform,
    make_model,
)
from .errors import (
    IndexOutOfRange,
    LengthMismatch,
    MalformedInput,
    OutOfRange,
    TooLarge,
    TooManyCandidates,
)
from .scenario import (
    MeasurementScenario,
    bell_scenario,
    bell_token,
    expect_json,
    overlap,
    parse_bell_token,
    projection,
    scenario_from_dict,
    scenario_to_dict,
    section_values,
)

ZERO = Fraction(0)
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

#: Guard for enumerate_parity: at most 2**20 parity vectors.
PARITY_ENUMERATION_LIMIT = 20
#: Guard for csp_enumerate_extension: at most 2**24 candidates.
CSP_ENUMERATION_LIMIT = 1 << 24
#: Guard for the 8-parameter scans: at most 2**14 points, one CF LP each.
SCAN_POINT_LIMIT = 1 << 14


@dataclass(frozen=True)
class ParitySystem:
    """One XOR equation per context: sum of its observables = parity bit (mod 2)."""

    scenario: MeasurementScenario
    parities: tuple[int, ...]

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
    bits = tuple(int(b) for b in parities)
    if len(bits) != s.n_contexts:
        raise LengthMismatch(
            f"{len(bits)} parity bits for {s.n_contexts} contexts"
        )
    if any(b not in (0, 1) for b in bits):
        raise LengthMismatch("parities must be bits")
    return ParitySystem(scenario=s, parities=bits)


def _gf2_eliminate(masks: Sequence[int], parities: Sequence[int]):
    """Row-echelon elimination over GF(2) with provenance tracking.

    Rows are (coefficient mask, parity bit, combination mask over the
    original equations).  Returns (pivot rows, residual rows); residual rows
    have zero coefficients, and any residual with parity 1 certifies
    inconsistency via the original equations in its combination mask.
    """
    rows = [
        [mask, parity, 1 << i]
        for i, (mask, parity) in enumerate(zip(masks, parities))
    ]
    pivots = []  # (variable index, row)
    n_vars = max((m.bit_length() for m in masks), default=0)
    remaining = rows
    for var in range(n_vars):
        bit = 1 << var
        pivot = None
        rest = []
        for row in remaining:
            if pivot is None and row[0] & bit:
                pivot = row
            else:
                rest.append(row)
        if pivot is None:
            continue
        for row in rest:
            if row[0] & bit:
                row[0] ^= pivot[0]
                row[1] ^= pivot[1]
                row[2] ^= pivot[2]
        pivots.append((var, pivot))
        remaining = rest
    return pivots, remaining


def _combo_indices(combo: int) -> tuple[int, ...]:
    return tuple(i for i in range(combo.bit_length()) if (combo >> i) & 1)


def parity_consistent(ps: ParitySystem):
    """Decide the XOR system by Gaussian elimination over GF(2).

    Returns ``(True, solution)`` with one satisfying bit per observable
    (free variables set to 0), or ``(False, certificate)`` where the
    certificate is a tuple of equation indices whose mod-2 sum is the
    contradiction 0 = 1.
    """
    masks = [ps.coefficient_mask(c) for c in range(ps.scenario.n_contexts)]
    pivots, residual = _gf2_eliminate(masks, ps.parities)
    for row in residual:
        if row[1]:
            return False, _combo_indices(row[2])
    assignment = 0
    for var, row in reversed(pivots):
        rest = row[0] & ~(1 << var)
        value = row[1] ^ (bin(rest & assignment).count("1") & 1)
        if value:
            assignment |= 1 << var
    n = len(ps.scenario.observables)
    return True, tuple((assignment >> i) & 1 for i in range(n))


def parity_to_possibilistic(ps: ParitySystem) -> PossibilisticModel:
    """Support = the sections of each context whose outcome XOR equals P_c.

    Every context keeps exactly half of its sections (a single-observable
    context keeps the one section equal to its parity bit).
    """
    supports = []
    for c, p in enumerate(ps.parities):
        width = len(ps.scenario.context(c))
        supports.append(
            tuple(
                bin(sec).count("1") % 2 == p for sec in range(1 << width)
            )
        )
    return PossibilisticModel(scenario=ps.scenario, supports=tuple(supports))


@dataclass(frozen=True)
class BooleanSignalingWitness:
    """Two contexts whose support projections differ on their intersection."""

    context_a: int
    context_b: int
    overlap: tuple[str, ...]
    projection_a: tuple[int, ...]
    projection_b: tuple[int, ...]

    def describe(self) -> str:
        return (
            f"contexts {self.context_a} and {self.context_b} project onto "
            f"{self.overlap} as {self.projection_a} vs {self.projection_b}"
        )


def _project_support(support_mask: int, table: Sequence[int]) -> int:
    """Existential projection of a support bitmask through a :func:`projection` table."""
    out = 0
    for sec, sub in enumerate(table):
        if (support_mask >> sec) & 1:
            out |= 1 << sub
    return out


def boolean_no_signaling(b: PossibilisticModel):
    """Possibilistic no-signaling: support projections agree on overlaps.

    Returns ``(True, None)`` or ``(False, witness)`` with the first failing
    context pair in canonical order.
    """
    s = b.scenario
    for i in range(s.n_contexts):
        for j in range(i + 1, s.n_contexts):
            shared = overlap(s, i, j)
            if not shared:
                continue
            pi = _project_support(b.support_mask(i), projection(s.contexts[i], shared))
            pj = _project_support(b.support_mask(j), projection(s.contexts[j], shared))
            if pi != pj:
                return False, BooleanSignalingWitness(
                    i, j, shared,
                    tuple(k for k in range(1 << len(shared)) if (pi >> k) & 1),
                    tuple(k for k in range(1 << len(shared)) if (pj >> k) & 1),
                )
    return True, None


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


def _null_space_combos(s: MeasurementScenario) -> tuple[int, ...]:
    """Basis of left-null combinations of the context coefficient matrix.

    A parity vector is GF(2)-consistent iff it is orthogonal to every basis
    combination.
    """
    ps = ParitySystem(s, (0,) * s.n_contexts)
    masks = [ps.coefficient_mask(c) for c in range(s.n_contexts)]
    _, residual = _gf2_eliminate(masks, [0] * len(masks))
    return tuple(row[2] for row in residual)


def _classify_parities(s: MeasurementScenario, bits, combos) -> ParityVerdict:
    pmask = 0
    for c, bit in enumerate(bits):
        if bit:
            pmask |= 1 << c
    consistent = all(bin(pmask & combo).count("1") % 2 == 0 for combo in combos)
    if consistent:
        return ParityVerdict(bits, True, None, None)
    lift = lift_uniform(parity_to_possibilistic(ParitySystem(s, bits)))
    report = analysis.classify(lift)
    return ParityVerdict(bits, False, report.cf, report.amcc)


def _parity_chunk(args) -> list[ParityVerdict]:
    s, start, end = args
    combos = _null_space_combos(s)
    m = s.n_contexts
    return [
        _classify_parities(s, section_values(i, m), combos)
        for i in range(start, end)
    ]


def enumerate_parity(s: MeasurementScenario, jobs: int = 1) -> ParityEnumeration:
    """Classify every parity vector of a scenario.

    Consistent vectors are counted; inconsistent ones get their uniform lift
    fully classified.  The verdict list is in lexicographic parity order and
    independent of ``jobs``.
    """
    m = s.n_contexts
    if m > PARITY_ENUMERATION_LIMIT:
        raise TooLarge(f"{m} contexts exceed the 2**{PARITY_ENUMERATION_LIMIT} guard")
    total = 1 << m
    verdicts: list[ParityVerdict] = []
    if jobs <= 1:
        verdicts = _parity_chunk((s, 0, total))
    else:
        bounds = [total * k // jobs for k in range(jobs + 1)]
        chunks = [
            (s, bounds[k], bounds[k + 1])
            for k in range(jobs)
            if bounds[k] < bounds[k + 1]
        ]
        with multiprocessing.Pool(processes=len(chunks)) as pool:
            for part in pool.map(_parity_chunk, chunks):
                verdicts.extend(part)
    consistent_count = sum(1 for v in verdicts if v.consistent)
    amcc_count = sum(1 for v in verdicts if v.amcc)
    return ParityEnumeration(
        total=total,
        consistent_count=consistent_count,
        amcc_count=amcc_count,
        verdicts=tuple(verdicts),
    )


# --- CSP extension enumeration ----------------------------------------------


@dataclass(frozen=True)
class CspCandidate:
    """A passing candidate: its enumeration index and per-context support masks."""

    index: int
    support_masks: tuple[int, ...]


@dataclass(frozen=True)
class CspEnumeration:
    candidates: int
    passing_count: int
    passing: tuple[CspCandidate, ...]

    def to_dict(self) -> dict:
        return {"candidates": self.candidates, "ns_and_unsat": self.passing_count}


def candidate_model(
    s: MeasurementScenario, support_masks: Sequence[int]
) -> PossibilisticModel:
    """Materialize a candidate's support masks as a possibilistic model."""
    supports = tuple(
        tuple(bool((mask >> sec) & 1) for sec in range(s.n_sections(c)))
        for c, mask in enumerate(support_masks)
    )
    return PossibilisticModel(scenario=s, supports=supports)


class _CspSearch:
    """Precomputed tables shared by the sequential and parallel CSP scans."""

    def __init__(self, base: PossibilisticModel, extendable: tuple[int, ...]):
        s = base.scenario
        self.extendable = extendable
        self.base_masks = [base.support_mask(c) for c in range(s.n_contexts)]
        for c in extendable:
            s.context(c)

        self.absent = {
            c: [
                sec
                for sec in range(s.n_sections(c))
                if not (self.base_masks[c] >> sec) & 1
            ]
            for c in extendable
        }
        self.radices = [1 << len(self.absent[c]) for c in extendable]
        self.total = 1
        for r in self.radices:
            self.total *= r
        if self.total > CSP_ENUMERATION_LIMIT:
            raise TooManyCandidates(
                f"{self.total} candidates exceed the {CSP_ENUMERATION_LIMIT} guard"
            )

        # Per extendable context: candidate support mask per local choice.
        self.choice_masks = {}
        for c in extendable:
            table = []
            for k in range(1 << len(self.absent[c])):
                add = 0
                for bit, sec in enumerate(self.absent[c]):
                    if (k >> bit) & 1:
                        add |= 1 << sec
                table.append(self.base_masks[c] | add)
            self.choice_masks[c] = table

        gmasks = analysis.global_masks(s)

        def allowed(c, mask):
            acc = 0
            for sec in range(s.n_sections(c)):
                if (mask >> sec) & 1:
                    acc |= gmasks[c][sec]
            return acc

        full = (1 << (1 << len(s.observables))) - 1
        self.fixed_allowed = full
        for c in range(s.n_contexts):
            if c not in extendable:
                self.fixed_allowed &= allowed(c, self.base_masks[c])
        self.allowed_tables = {
            c: [allowed(c, mask) for mask in self.choice_masks[c]]
            for c in extendable
        }

        # No-signaling machinery: static pairs once, dynamic pairs per candidate.
        def projected(c, shared):
            # One projected mask per local choice of an extendable context,
            # or the single projected base mask of a fixed one.
            table = projection(s.contexts[c], shared)
            if c in extendable:
                return [_project_support(m, table) for m in self.choice_masks[c]]
            return _project_support(self.base_masks[c], table)

        self.static_ok = True
        self.dynamic_pairs = []  # (i, j, proj_i, proj_j); proj is table or constant
        for i in range(s.n_contexts):
            for j in range(i + 1, s.n_contexts):
                shared = overlap(s, i, j)
                if not shared:
                    continue
                proj_i, proj_j = projected(i, shared), projected(j, shared)
                if i not in extendable and j not in extendable:
                    if proj_i != proj_j:
                        self.static_ok = False
                    continue
                self.dynamic_pairs.append((i, j, proj_i, proj_j))

    def scan(self, start: int, end: int, collect: bool):
        """Count (and optionally record) passing candidates with index in [start, end)."""
        if not self.static_ok:
            return 0, []
        ext = self.extendable
        lookup = {c: k for k, c in enumerate(ext)}
        count = 0
        passing = []
        for index in range(start, end):
            rem = index
            choices = [0] * len(ext)
            for k in range(len(ext) - 1, -1, -1):
                rem, choices[k] = divmod(rem, self.radices[k])
            ok = True
            for i, j, table_i, table_j in self.dynamic_pairs:
                pi = table_i[choices[lookup[i]]] if i in lookup else table_i
                pj = table_j[choices[lookup[j]]] if j in lookup else table_j
                if pi != pj:
                    ok = False
                    break
            if not ok:
                continue
            acc = self.fixed_allowed
            for k, c in enumerate(ext):
                acc &= self.allowed_tables[c][choices[k]]
                if not acc:
                    break
            if acc:
                continue  # satisfiable, hence not strongly contextual
            count += 1
            if collect:
                masks = list(self.base_masks)
                for k, c in enumerate(ext):
                    masks[c] = self.choice_masks[c][choices[k]]
                passing.append(CspCandidate(index=index, support_masks=tuple(masks)))
        return count, passing


def _csp_chunk(args):
    base, extendable, start, end, collect = args
    search = _CspSearch(base, extendable)
    return search.scan(start, end, collect)


def csp_enumerate_extension(
    base: PossibilisticModel,
    extendable_contexts: Sequence[int],
    jobs: int = 1,
    collect: bool = True,
) -> CspEnumeration:
    """Scan every way of adding absent sections to the extendable contexts.

    Candidates are counted as passing when they satisfy Boolean no-signaling
    and are unsatisfiable as constraint instances.  Iteration order fixes the
    candidate index: extendable contexts ascending, the last one varying
    fastest; results are independent of ``jobs`` and chunking.
    """
    extendable = tuple(sorted(set(int(c) for c in extendable_contexts)))
    search = _CspSearch(base, extendable)
    total = search.total
    if jobs <= 1:
        count, passing = search.scan(0, total, collect)
    else:
        bounds = [total * k // jobs for k in range(jobs + 1)]
        chunks = [
            (base, extendable, bounds[k], bounds[k + 1], collect)
            for k in range(jobs)
            if bounds[k] < bounds[k + 1]
        ]
        count = 0
        passing = []
        with multiprocessing.Pool(processes=len(chunks)) as pool:
            for part_count, part_passing in pool.map(_csp_chunk, chunks):
                count += part_count
                passing.extend(part_passing)
    return CspEnumeration(
        candidates=total, passing_count=count, passing=tuple(passing)
    )


def _half_support_masks(parities: Sequence[Union[int, None]]) -> list[int]:
    """Support masks over 8 sections: parity half, x1=0 half (None), or custom."""
    masks = []
    for p in parities:
        if p == "low":
            masks.append(0b00001111)  # sections 0..3: first observable = 0
        else:
            mask = 0
            for sec in range(8):
                if bin(sec).count("1") % 2 == p:
                    mask |= 1 << sec
            masks.append(mask)
    return masks


#: The shipped CSP base pattern: contexts 0/3/5/6 are parity halves
#: (odd, even, even, even) and contexts 1/2/4/7 are "first observable = 0"
#: halves, which are the extendable ones.
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
    s = bell_scenario(3, 2)
    masks = _half_support_masks(pattern)
    return candidate_model(s, masks), extendable


# --- parametric families ------------------------------------------------------


def _check_range(name: str, value: Fraction, low: Fraction, high: Fraction):
    if not low <= value <= high:
        raise OutOfRange(
            f"{name} = {format_rational(value)} is outside "
            f"[{format_rational(low)}, {format_rational(high)}]"
        )


def eight_param_family(params: Sequence[Union[Fraction, int, str]]) -> EmpiricalModel:
    """The symmetric 8-parameter (3,2,2) family with maximal marginals built in.

    Row ``c`` puts ``p_c`` on even-parity sections and ``1/4 - p_c`` on
    odd-parity sections, so every within-context marginal is uniform for any
    parameters in [0, 1/4].
    """
    values = [Fraction(p) for p in params]
    if len(values) != 8:
        raise LengthMismatch(f"need 8 parameters, got {len(values)}")
    for i, p in enumerate(values, start=1):
        _check_range(f"p{i}", p, ZERO, QUARTER)
    rows = []
    for p in values:
        rows.append(
            tuple(
                p if bin(sec).count("1") % 2 == 0 else QUARTER - p
                for sec in range(8)
            )
        )
    return make_model(bell_scenario(3, 2), rows)


def three_param_family(
    p1: Union[Fraction, int, str],
    p2: Union[Fraction, int, str],
    p3: Union[Fraction, int, str],
) -> EmpiricalModel:
    """The asymmetric 3-parameter (3,2,2) family.

    Validity is decided by evaluation: every symbolic entry must land in
    [0, 1] (OutOfRange otherwise) and each row must normalize.  The family
    is strongly contextual inside the bounds 0 <= p2 < 1/2,
    p2 < p1 < p2/2 + 1/4, 0 < p3 < min(p1, 1/2 - p1, 2*p1 - p2), and turns
    symmetric (maximal marginals) at p1 = p3 = 1/4, p2 = 0.
    """
    p1, p2, p3 = Fraction(p1), Fraction(p2), Fraction(p3)
    rows = (
        (ZERO, p1, p1, ZERO, HALF - p1, ZERO, ZERO, HALF - p1),
        (p2, p1 - p2, p3, p1 - p3, HALF - p1, ZERO, ZERO, HALF - p1),
        (p2, p3, p1 - p2, p1 - p3, HALF - p1, ZERO, ZERO, HALF - p1),
        (p2 + p3, ZERO, ZERO, 2 * p1 - p2 - p3, ZERO, HALF - p1, HALF - p1, ZERO),
        (HALF - 2 * p1 + p2, p1, p1, HALF - p1 - p3, p1 - p2, ZERO, ZERO, p3),
        (HALF - p1 + p2, ZERO, ZERO, HALF - p3, ZERO, p1 - p2, p3, ZERO),
        (HALF - p1 + p2, ZERO, ZERO, HALF - p3, ZERO, p3, p1 - p2, ZERO),
        (p2, HALF - p1, HALF - p1, p1 - p3, p3, ZERO, ZERO, p1 - p2),
    )
    for c, row in enumerate(rows):
        for sec, entry in enumerate(row):
            if not ZERO <= entry <= 1:
                raise OutOfRange(
                    f"entry ({c},{sec}) evaluates to {format_rational(entry)}"
                )
    return make_model(bell_scenario(3, 2), rows)


#: Table cell (row, column) holding each of the 26 free parameters.
PARAM_CELLS_26 = {
    1: (0, 0), 2: (0, 1), 3: (0, 2), 4: (0, 3), 5: (0, 4), 6: (0, 5), 7: (0, 6),
    8: (3, 4), 9: (1, 0), 10: (4, 0), 11: (1, 2), 12: (4, 1), 13: (1, 4),
    14: (4, 2), 15: (1, 6), 16: (4, 3), 17: (2, 0), 18: (2, 1), 19: (5, 0),
    20: (5, 2), 21: (2, 4), 22: (2, 5), 23: (6, 0), 24: (6, 1), 25: (3, 0),
    26: (7, 0),
}


def twentysix_param_family(
    params: Sequence[Union[Fraction, int, str]]
) -> EmpiricalModel:
    """The full 26-parameter no-signaling (3,2,2) table.

    Normalization and no-signaling hold identically in the parameters; a
    choice is valid exactly when every derived entry lands in [0, 1].
    """
    values = [Fraction(p) for p in params]
    if len(values) != 26:
        raise LengthMismatch(f"need 26 parameters, got {len(values)}")
    p = dict(zip(range(1, 27), values))
    one = Fraction(1)
    rows = (
        (
            p[1], p[2], p[3], p[4], p[5], p[6], p[7],
            one - (p[1] + p[2] + p[3] + p[4] + p[5] + p[6] + p[7]),
        ),
        (
            p[9], p[1] + p[2] - p[9], p[11], p[3] + p[4] - p[11],
            p[13], p[5] + p[6] - p[13], p[15],
            one - (p[1] + p[2] + p[3] + p[4] + p[5] + p[6] + p[15]),
        ),
        (
            p[17], p[18], p[1] + p[3] - p[17], p[2] + p[4] - p[18],
            p[21], p[22], p[5] + p[7] - p[21],
            one - (p[1] + p[2] + p[3] + p[4] + p[5] + p[7] + p[22]),
        ),
        (
            p[25], p[17] + p[18] - p[25], p[9] + p[11] - p[25],
            p[1] + p[2] + p[3] + p[4] - p[9] - p[11] - p[17] - p[18] + p[25],
            p[8], p[21] + p[22] - p[8], p[13] + p[15] - p[8],
            one - (p[1] + p[2] + p[3] + p[4] + p[21] + p[22] + p[13] + p[15] - p[8]),
        ),
        (
            p[10], p[12], p[14], p[16],
            p[1] + p[5] - p[10], p[2] + p[6] - p[12], p[3] + p[7] - p[14],
            one - (p[1] + p[2] + p[3] + p[5] + p[6] + p[7] + p[16]),
        ),
        (
            p[19], p[10] + p[12] - p[19], p[20], p[14] + p[16] - p[20],
            p[9] + p[13] - p[19],
            p[1] + p[2] + p[5] + p[6] - p[9] - p[13] - p[10] - p[12] + p[19],
            p[11] + p[15] - p[20],
            one - (p[1] + p[2] + p[5] + p[6] + p[11] + p[14] + p[15] + p[16] - p[20]),
        ),
        (
            p[23], p[24], p[10] + p[14] - p[23], p[12] + p[16] - p[24],
            p[17] + p[21] - p[23], p[18] + p[22] - p[24],
            p[1] + p[3] + p[5] + p[7] - p[17] - p[21] - p[10] - p[14] + p[23],
            one - (p[1] + p[3] + p[5] + p[7] + p[18] + p[22] + p[12] + p[16] - p[24]),
        ),
        (
            p[26], p[23] + p[24] - p[26], p[19] + p[20] - p[26],
            p[10] + p[12] + p[14] + p[16] - p[19] - p[20] - p[23] - p[24] + p[26],
            p[25] + p[8] - p[26],
            p[17] + p[18] + p[21] + p[22] - p[25] - p[8] - p[23] - p[24] + p[26],
            p[9] + p[11] + p[13] + p[15] - p[25] - p[8] - p[19] - p[20] + p[26],
            one - (
                p[9] + p[11] + p[13] + p[15] + p[17] + p[18] + p[21] + p[22]
                - p[25] - p[8] + p[10] + p[12] + p[14] + p[16]
                - p[19] - p[20] - p[23] - p[24] + p[26]
            ),
        ),
    )
    for c, row in enumerate(rows):
        for sec, entry in enumerate(row):
            if not ZERO <= entry <= 1:
                raise OutOfRange(
                    f"entry ({c},{sec}) evaluates to {format_rational(entry)}"
                )
    return make_model(bell_scenario(3, 2), rows)


def twentysix_params_from_model(m: EmpiricalModel) -> tuple[Fraction, ...]:
    """Read the 26 parameter cells back off a (3,2,2) table."""
    return tuple(
        m.tables[row][col] for row, col in (PARAM_CELLS_26[i] for i in range(1, 27))
    )


# --- parameter scans ----------------------------------------------------------


@dataclass(frozen=True)
class ScanPoint:
    params: tuple[Fraction, ...]
    cf: Fraction


@dataclass(frozen=True)
class ScanReport:
    points: tuple[ScanPoint, ...]
    histogram: tuple[tuple[Fraction, int], ...]

    def cf_values(self) -> set:
        return {cf for cf, _ in self.histogram}

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


def scan_eight_param(
    grid: Sequence[Union[Fraction, int, str]],
    fixed: Optional[Mapping[int, Union[Fraction, int, str]]] = None,
) -> ScanReport:
    """Contextual fraction over a grid of 8-parameter family instances.

    ``fixed`` pins parameters (1-based keys) to single values; every unfixed
    parameter ranges over ``grid``.  Points are visited in lexicographic
    order with the last parameter varying fastest.  Raises TooLarge above
    SCAN_POINT_LIMIT points before evaluating any.
    """
    grid_values = [Fraction(v) for v in grid]
    pinned = {int(k): Fraction(v) for k, v in (fixed or {}).items()}
    for k in pinned:
        if not 1 <= k <= 8:
            raise IndexOutOfRange(f"parameter index {k} not in 1..8")
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
    vals = [Fraction(v) for v in values]
    _require_scan_size(math.comb(8, 2) * len(vals) ** 2)
    points = []
    for i, j in itertools.combinations(range(8), 2):
        for vi, vj in itertools.product(vals, repeat=2):
            params = [ZERO] * 8
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
    raw = data["scenario"]
    s = parse_bell_token(raw) if isinstance(raw, str) else scenario_from_dict(raw)
    parities = expect_json(data["parities"], list, "parities")
    if not all(isinstance(b, int) for b in parities):
        raise MalformedInput("parities must be integers")
    return parity_system(s, parities)
