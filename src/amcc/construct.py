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

Both routes hold each context's support as a section bitmask
(:class:`~amcc.empirical.PossibilisticModel`).

Three exact parametric table families for the (3,2,2) scenario are included,
with 8, 3 and 26 free parameters.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from . import analysis
from .empirical import (
    EmpiricalModel,
    PossibilisticModel,
    SignalingWitness,
    format_rational,
    lift_uniform,
    make_model,
    support_row,
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
    gf2_back_substitute,
    gf2_eliminate,
    json_field,
    overlaps,
    parity_mask,
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
    pivots, residual = gf2_eliminate(masks, ps.parities)
    for row in residual:
        if row[1]:
            return False, _combo_indices(row[2])
    assignment = gf2_back_substitute(pivots)
    n = len(ps.scenario.observables)
    return True, tuple((assignment >> i) & 1 for i in range(n))


def parity_to_possibilistic(ps: ParitySystem) -> PossibilisticModel:
    """Support = the sections of each context whose outcome XOR equals P_c.

    Every context keeps exactly half of its sections (a single-observable
    context keeps the one section equal to its parity bit).
    """
    masks = tuple(parity_mask(len(ctx), p) for ctx, p in zip(ps.scenario.contexts, ps.parities))
    return PossibilisticModel(scenario=ps.scenario, masks=masks)


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
    context pair in canonical order; the witness's marginals are the two
    projected support masks as 0/1 rows.
    """
    s = b.scenario
    for i, j, shared in overlaps(s):
        pi = _project_support(b.masks[i], projection(s.contexts[i], shared))
        pj = _project_support(b.masks[j], projection(s.contexts[j], shared))
        if pi != pj:
            rows = (support_row(mask, 1 << len(shared)) for mask in (pi, pj))
            return False, SignalingWitness(i, j, shared, *rows)
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


def _map_chunks(worker, args, total, jobs):
    """``worker(*args, start, end)`` over ``[0, total)`` cut into consecutive chunks.

    Uses ``min(jobs, os.cpu_count(), total)`` chunks, capped before any
    bound is built; one chunk runs in this process, more go to a process
    pool with one worker per chunk.  Returns the chunk results in order.
    """
    jobs = max(1, min(jobs, os.cpu_count() or 1, total))
    if jobs == 1:
        return [worker(*args, 0, total)]
    bounds = [total * k // jobs for k in range(jobs + 1)]
    with multiprocessing.Pool(processes=jobs) as pool:
        return pool.starmap(
            worker, [(*args, bounds[k], bounds[k + 1]) for k in range(jobs)]
        )


def _classify_parities(s: MeasurementScenario, bits) -> ParityVerdict:
    ps = ParitySystem(s, bits)
    if parity_consistent(ps)[0]:
        return ParityVerdict(bits, True, None, None)
    report = analysis.classify(lift_uniform(parity_to_possibilistic(ps)))
    return ParityVerdict(bits, False, report.cf, report.amcc)


def _parity_chunk(s: MeasurementScenario, start: int, end: int) -> list[ParityVerdict]:
    m = s.n_contexts
    return [_classify_parities(s, section_values(i, m)) for i in range(start, end)]


def enumerate_parity(s: MeasurementScenario, jobs: int = 1) -> ParityEnumeration:
    """Classify every parity vector of a scenario.

    Consistent vectors are counted; inconsistent ones get their uniform lift
    fully classified.  The verdict list is in lexicographic parity order and
    independent of ``jobs``, which is capped at the CPU count.
    """
    m = s.n_contexts
    if m > PARITY_ENUMERATION_LIMIT:
        raise TooLarge(f"{m} contexts exceed the 2**{PARITY_ENUMERATION_LIMIT} guard")
    total = 1 << m
    verdicts = tuple(
        v for part in _map_chunks(_parity_chunk, (s,), total, jobs) for v in part
    )
    return ParityEnumeration(
        total=total,
        consistent_count=sum(1 for v in verdicts if v.consistent),
        amcc_count=sum(1 for v in verdicts if v.amcc),
        verdicts=verdicts,
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
    return PossibilisticModel(scenario=s, masks=tuple(support_masks))


class _CspSearch:
    """Per-context choice tables for the CSP scan.

    Every context has a list of candidate support masks: a fixed context
    has one, its base mask; an extendable one has its base mask plus each
    subset of its absent sections, local choice ``k`` adding the absent
    sections selected by the bits of ``k``.  Candidate ``index`` is the
    ``index``-th tuple of ``itertools.product`` over those lists.
    """

    def __init__(self, base: PossibilisticModel, extendable: tuple[int, ...]):
        s = base.scenario
        absent = {
            c: [sec for sec in range(s.n_sections(c)) if not (base.masks[c] >> sec) & 1]
            for c in extendable
        }
        self.total = 1 << sum(len(secs) for secs in absent.values())
        if self.total > CSP_ENUMERATION_LIMIT:
            raise TooManyCandidates(
                f"{self.total} candidates exceed the {CSP_ENUMERATION_LIMIT} guard"
            )
        self.choices = []
        for c, mask in enumerate(base.masks):
            secs = absent.get(c, ())
            self.choices.append([
                mask | sum(1 << sec for bit, sec in enumerate(secs) if (k >> bit) & 1)
                for k in range(1 << len(secs))
            ])
        self.allowed = [
            [analysis.allowed_mask(s, c, mask) for mask in masks]
            for c, masks in enumerate(self.choices)
        ]
        # No-signaling: pairs of fixed contexts are decided once, the rest
        # per candidate from one projected mask per choice.
        self.static_ok = True
        self.pairs = []  # (i, j, projected masks of i's choices, of j's choices)
        for i, j, shared in overlaps(s):
            proj_i, proj_j = (
                [_project_support(m, projection(s.contexts[c], shared)) for m in self.choices[c]]
                for c in (i, j)
            )
            if len(proj_i) == len(proj_j) == 1:
                self.static_ok &= proj_i == proj_j
            else:
                self.pairs.append((i, j, proj_i, proj_j))

    def scan(self, collect: bool, start: int, end: int):
        """Count (and optionally record) passing candidates with index in [start, end)."""
        if not self.static_ok:
            return 0, []
        count = 0
        passing = []
        ranges = [range(len(masks)) for masks in self.choices]
        picks = itertools.islice(itertools.product(*ranges), start, end)
        for index, pick in enumerate(picks, start):
            for i, j, proj_i, proj_j in self.pairs:
                if proj_i[pick[i]] != proj_j[pick[j]]:
                    break  # signaling
            else:
                acc = -1
                for allowed, k in zip(self.allowed, pick):
                    acc &= allowed[k]
                if acc:
                    continue  # satisfiable, hence not strongly contextual
                count += 1
                if collect:
                    masks = tuple(masks[k] for masks, k in zip(self.choices, pick))
                    passing.append(CspCandidate(index=index, support_masks=masks))
        return count, passing


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
    fastest; results are independent of ``jobs`` (capped at the CPU count)
    and chunking.
    """
    extendable = tuple(sorted(set(int(c) for c in extendable_contexts)))
    search = _CspSearch(base, extendable)
    parts = _map_chunks(search.scan, (collect,), search.total, jobs)
    return CspEnumeration(
        candidates=search.total,
        passing_count=sum(count for count, _ in parts),
        passing=tuple(cand for _, cands in parts for cand in cands),
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


def _check_range(name: str, value: Fraction, low: Fraction, high: Fraction):
    if not low <= value <= high:
        raise OutOfRange(
            f"{name} = {format_rational(value)} is outside "
            f"[{format_rational(low)}, {format_rational(high)}]"
        )


def _model_322(rows) -> EmpiricalModel:
    """Check that every evaluated entry lies in [0, 1], then build the (3,2,2) model."""
    for c, row in enumerate(rows):
        for sec, entry in enumerate(row):
            if not ZERO <= entry <= 1:
                raise OutOfRange(
                    f"entry ({c},{sec}) evaluates to {format_rational(entry)}"
                )
    return make_model(bell_scenario(3, 2), rows)


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
    even = support_row(parity_mask(3, 0), 8)
    rows = [tuple(p if bit else QUARTER - p for bit in even) for p in values]
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
    return _model_322(rows)


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
    return _model_322(rows)


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
    raw = json_field(data, "scenario")
    s = parse_bell_token(raw) if isinstance(raw, str) else scenario_from_dict(raw)
    parities = expect_json(json_field(data, "parities"), list, "parities")
    if not all(isinstance(b, int) for b in parities):
        raise MalformedInput("parities must be integers")
    return parity_system(s, parities)
