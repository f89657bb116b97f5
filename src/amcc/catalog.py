"""Canonical fixture models, generated from their closed-form definitions.

Only the asymmetric strongly-contextual table is a verbatim transcription
(it has no closed form); everything else is produced from its defining
parity/uniformity condition so the code documents the construction.
"""

from __future__ import annotations

from .empirical import EmpiricalModel, PossibilisticModel, lift_uniform, make_model
from .errors import IndexOutOfRange
from .scenario import bell_scenario, is_bit, parity_mask, shown


def pr_box(alpha: int, beta: int, gamma: int) -> EmpiricalModel:
    """The (2,2,2) box with p = 1/2 iff x1 + x2 = X1*X2 + alpha*X1 + beta*X2 + gamma (mod 2).

    The eight bit choices give the eight extremal boxes; all have uniform
    single-observable marginals.
    """
    for bit in (alpha, beta, gamma):
        if not is_bit(bit):
            raise IndexOutOfRange(f"pr_box flag {shown(bit)} is not a bit")
    masks = [
        parity_mask(2, (a * b) ^ (alpha * a) ^ (beta * b) ^ gamma)
        for a in (0, 1) for b in (0, 1)
    ]
    return lift_uniform(PossibilisticModel(bell_scenario(2, 2), tuple(masks)))


def ghz_model() -> EmpiricalModel:
    """The (3,2,2) correlation of the three-qubit GHZ state under X/Y measurements.

    Contexts with an even number of primed settings put weight 1/4 on the
    sections with x1+x2+x3 = 1 + X1X2X3 + X1X2 + X2X3 + X3X1 (mod 2); the
    remaining four contexts are uniformly 1/8.
    """
    masks = [
        parity_mask(3, (1 + a * b * c + a * b + b * c + c * a) % 2) if (a + b + c) % 2 == 0
        else 0xFF
        for a in (0, 1) for b in (0, 1) for c in (0, 1)
    ]
    return lift_uniform(PossibilisticModel(bell_scenario(3, 2), tuple(masks)))


def three_way_box() -> EmpiricalModel:
    """The (3,2,2) box with p = 1/4 iff x1 + x2 + x3 = X1*X2*X3 (mod 2)."""
    masks = [parity_mask(3, a * b * c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    return lift_uniform(PossibilisticModel(bell_scenario(3, 2), tuple(masks)))


#: Verbatim transcription of the asymmetric strongly-contextual (3,2,2) table
#: (rows in context order (0,0,0)..(1,1,1), entries in quarters).
_ASYMMETRIC_ROWS = (
    (0, 1, 2, 0, 1, 0, 0, 0),
    (1, 0, 0, 2, 0, 1, 0, 0),
    (1, 0, 1, 1, 1, 0, 0, 0),
    (1, 0, 0, 2, 0, 1, 0, 0),
    (0, 1, 2, 0, 1, 0, 0, 0),
    (1, 0, 0, 2, 0, 1, 0, 0),
    (2, 0, 0, 1, 0, 0, 1, 0),
    (1, 1, 0, 1, 0, 0, 0, 1),
)


def asymmetric_scc_model() -> EmpiricalModel:
    """A strongly contextual (3,2,2) model whose marginals are not uniform.

    Unlike the parity-generated boxes this table is asymmetric (rows carry
    weights 1/2 and 1/4), so it is maximally contextual without having
    maximal marginals.
    """
    return make_model(bell_scenario(3, 2), _ASYMMETRIC_ROWS, 4)


#: CLI registry: name -> (constructor, accepts pr-box bits?).
CATALOG = {
    "pr-box": (pr_box, True),
    "ghz": (ghz_model, False),
    "three-way-box": (three_way_box, False),
    "asymmetric-scc": (asymmetric_scc_model, False),
}
