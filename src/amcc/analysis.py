"""Contextuality decisions for no-signaling empirical models.

Two independent decision routes are implemented and cross-checked:

* an exact linear program over the incidence matrix (what is the largest
  noncontextual weight? the model is contextual iff it is below 1, and at
  weight 1 the optimum is a global distribution reproducing every row), and
* an exhaustive scan of global assignments against the support pattern
  (is there an assignment compatible with every context's support?).

``classify`` runs both and raises ``InternalConsistencyError`` if they ever
disagree, rather than returning a silently wrong verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .empirical import (
    EmpiricalModel,
    PossibilisticModel,
    format_rational,
    is_maximal_marginal,
    is_no_signaling,
    possibilistic_collapse,
)
from .errors import InternalConsistencyError, SignalingInput
from .ratlp import LinearProgram, LpStatus, maximize
from .scenario import MeasurementScenario, projection, section_values

ONE = Fraction(1)


@lru_cache(maxsize=None)
def restriction_table(s: MeasurementScenario) -> tuple[tuple[int, ...], ...]:
    """``table[c][g]`` = canonical section index of global assignment ``g`` in context ``c``.

    Global assignments are indexed by their outcome tuple read as a
    big-endian binary number (:func:`~amcc.scenario.section_index`).
    """
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


def _contextual_fraction_with_witness(m: EmpiricalModel):
    _require_no_signaling(m)
    inc = incidence_matrix(m.scenario)
    lp = LinearProgram(
        objective=(1,) * (1 << len(m.scenario.observables)),
        a_le=inc,
        b_le=tuple(_assignment_vector(m)),
    )
    out = maximize(lp)
    if out.status is not LpStatus.OPTIMAL:
        raise InternalConsistencyError(
            f"noncontextual-fraction LP ended {out.status}, expected an optimum"
        )
    return ONE - out.value, out.solution


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
    marginals are uniform.
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
