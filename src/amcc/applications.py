"""Applications: certified-randomness reports and a secret-sharing simulator.

The guessing probability of a marginal is its largest entry; min-entropy is
its negative binary logarithm; no adversary model enters either figure.
For models with maximal marginals every size-k marginal has min-entropy
exactly k bits.  The secret-sharing simulator runs
the dealer-key protocol on a strongly contextual parity resource at desk
scale: outcomes are sampled from the half-support pattern, test rounds check
the parity equation of the sampled context, and secret rounds encrypt one
bit with the dealer's share.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .construct import (
    ParitySystem, parity_consistent, parity_preset_to_dict, parity_to_possibilistic,
)
from .empirical import EmpiricalModel, exact_rational, format_rational, marginal
from .errors import (
    ConsistentResource,
    LengthMismatch,
    MalformedInput,
    NotASubset,
    RowNotNormalized,
    TooLarge,
)
from .scenario import context_setting_bits, is_bit, section_values, shown

#: Transcript header tag for the deterministic generator in use.
RNG_ALGORITHM = "python-random-mt19937"

#: Guard for the secret-sharing simulator: at most 2**16 rounds, all held in memory.
SECRET_SHARE_ROUND_LIMIT = 1 << 16


@dataclass(frozen=True)
class EntropyReport:
    """Guessing probability and min-entropy of one within-context marginal."""

    guess_probability: Fraction
    min_entropy_bits: float
    subset_size: int

    def to_dict(self) -> dict:
        return {
            "guess_probability": format_rational(self.guess_probability),
            "min_entropy_bits": float(f"{self.min_entropy_bits:.12g}"),
            "subset_size": self.subset_size,
        }


def guessing_probability(
    m: EmpiricalModel, c: int, subset: Sequence[str]
) -> Fraction:
    """The adversary's best guess: the largest marginal entry on a nonempty ``subset``."""
    if not subset:
        raise NotASubset("the subset to guess must name at least one observable")
    return Fraction(max(marginal(m, c, subset)), m.den)


def min_entropy(m: EmpiricalModel, c: int, subset: Sequence[str]) -> EntropyReport:
    """Min-entropy report: -log2 of the guessing probability, in bits."""
    p = guessing_probability(m, c, subset)
    bits = math.log2(p.denominator) - math.log2(p.numerator)
    return EntropyReport(
        guess_probability=p, min_entropy_bits=bits, subset_size=len(subset)
    )


@dataclass(frozen=True)
class ShareRound:
    """One protocol round; the dealer holds the last share of the section."""

    round_kind: str  # "test" | "secret"
    context: int
    inputs: Optional[tuple[int, ...]]
    outcomes: tuple[int, ...]
    dealer_key: int
    verdict: str  # "accepted" | "aborted"
    ciphertext: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.round_kind,
            "context": self.context,
            "inputs": None if self.inputs is None else list(self.inputs),
            "outcomes": list(self.outcomes),
            "dealer_key": self.dealer_key,
            "verdict": self.verdict,
            "ciphertext": self.ciphertext,
        }


@dataclass(frozen=True)
class SecretShareResult:
    """Transcript plus the receivers' reconstruction of the secret stream."""

    header: dict
    rounds: tuple[ShareRound, ...]
    aborted: bool
    abort_round: Optional[int]
    secret_bits_sent: tuple[int, ...]
    reconstructed_bits: tuple[int, ...]

    @property
    def success(self) -> bool:
        return not self.aborted and self.reconstructed_bits == self.secret_bits_sent

    def transcript(self) -> str:
        """JSON-lines transcript: header, one line per round, result line."""
        lines = [json.dumps({"header": self.header}, sort_keys=True)]
        for i, r in enumerate(self.rounds):
            lines.append(json.dumps({"round": i, **r.to_dict()}, sort_keys=True))
        lines.append(
            json.dumps(
                {
                    "result": {
                        "aborted": self.aborted,
                        "abort_round": self.abort_round,
                        "secret_bits_sent": list(self.secret_bits_sent),
                        "reconstructed_bits": list(self.reconstructed_bits),
                        "success": self.success,
                    }
                },
                sort_keys=True,
            )
        )
        return "\n".join(lines) + "\n"


def secret_share_simulate(
    ps: ParitySystem,
    secret_bits: Sequence[int],
    rounds: int,
    test_fraction: Union[Fraction, str],
    seed: int,
    tamper: Optional[Callable[[int, int, tuple[int, ...]], tuple[int, ...]]] = None,
) -> SecretShareResult:
    """Run the dealer-key protocol over an inconsistent parity resource.

    Each round samples a context uniformly and a supported section uniformly
    (one outcome bit per party; the dealer holds the last).  With probability
    ``test_fraction`` (an exact rational) the round is a parity test and the
    protocol aborts on violation; otherwise the dealer publishes the current
    secret bit XOR her share, and the receivers reconstruct it from their
    shares, the broadcast context index, and the public parity bit.  The
    optional ``tamper`` hook replaces the sampled outcomes (round, context,
    outcomes) -> outcomes, for adversarial experiments.

    The transcript is a deterministic function of the seed.  ``rounds``
    that is not an ``int`` (or is a ``bool``) raises MalformedInput; one
    outside 1..SECRET_SHARE_ROUND_LIMIT, and secret entries that are not
    bits (:func:`~amcc.scenario.is_bit`), are rejected before any sampling.
    """
    consistent, _ = parity_consistent(ps)
    if consistent:
        raise ConsistentResource(
            "parity system is satisfiable; it carries no contextuality guarantee"
        )
    q = exact_rational(test_fraction)
    if not 0 < q < 1:
        raise RowNotNormalized(f"test fraction {format_rational(q)} not in (0, 1)")
    if not isinstance(rounds, int) or isinstance(rounds, bool):
        raise MalformedInput(f"round count must be an int, got {shown(rounds)}")
    if rounds < 1:
        raise RowNotNormalized(f"round count {shown(rounds)} is below 1")
    if rounds > SECRET_SHARE_ROUND_LIMIT:
        raise TooLarge(
            f"round count {shown(rounds)} exceeds the {SECRET_SHARE_ROUND_LIMIT} round guard"
        )
    secret_bits = tuple(secret_bits)
    if not secret_bits:
        raise RowNotNormalized("need at least one secret bit")
    if not all(map(is_bit, secret_bits)):
        raise LengthMismatch("secret bits must be bits")

    s = ps.scenario
    masks = parity_to_possibilistic(ps).masks
    supported = [[sec for sec in range(m.bit_length()) if (m >> sec) & 1] for m in masks]
    setting_bits = [context_setting_bits(s, c) for c in range(s.n_contexts)]

    header = {
        **parity_preset_to_dict(ps),
        "rounds": rounds,
        "test_fraction": format_rational(q),
        "seed": seed,
        "rng": RNG_ALGORITHM,
    }

    rng = random.Random(seed)
    log: list[ShareRound] = []
    sent: list[int] = []
    reconstructed: list[int] = []
    abort_round = None

    for r in range(rounds):
        c = rng.randrange(s.n_contexts)
        sec = supported[c][rng.randrange(len(supported[c]))]
        outcomes = section_values(sec, len(s.contexts[c]))
        if tamper is not None:
            outcomes = tuple(int(b) & 1 for b in tamper(r, c, outcomes))
        is_test = rng.randrange(q.denominator) < q.numerator
        dealer_key = outcomes[-1]
        passed = not is_test or sum(outcomes) % 2 == ps.parities[c]
        ciphertext = None
        if not is_test:
            secret_bit = secret_bits[len(sent) % len(secret_bits)]
            ciphertext = dealer_key ^ secret_bit
            # Receivers: their shares XOR to parity ^ dealer_key, both public.
            recovered_key = ps.parities[c] ^ (sum(outcomes[:-1]) % 2)
            reconstructed.append(ciphertext ^ recovered_key)
            sent.append(secret_bit)
        log.append(
            ShareRound(
                round_kind="test" if is_test else "secret",
                context=c,
                inputs=setting_bits[c],
                outcomes=outcomes,
                dealer_key=dealer_key,
                verdict="accepted" if passed else "aborted",
                ciphertext=ciphertext,
            )
        )
        if not passed:
            abort_round = r
            break

    return SecretShareResult(
        header=header,
        rounds=tuple(log),
        aborted=abort_round is not None,
        abort_round=abort_round,
        secret_bits_sent=tuple(sent),
        reconstructed_bits=tuple(reconstructed),
    )
