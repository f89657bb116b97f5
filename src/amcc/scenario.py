"""Measurement scenarios: observables, context covers and section indices.

A scenario is a pair of observables and a cover of jointly-measurable
contexts; every observable is dichotomic.  All orderings are part of the
contract: observables keep their input order, contexts keep their input
order, and a section (an outcome assignment on a context, or on all
observables for a global assignment) is its canonical index, the outcome
bits read as a big-endian binary number with the leftmost observable most
significant.  :func:`projection` is the one restriction map between those
indices, :func:`overlaps` lists the context pairs that share labels and
:func:`parity_mask` the sections of each outcome parity;
:func:`cover_automorphisms` generates the relabellings of the observables
that map the cover onto itself.  Incidence matrices
and the JSON formats rely on these orderings being bit-stable.
:func:`gf2_eliminate` and :func:`gf2_back_substitute` are the GF(2)
elimination behind the parity consistency test.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Sequence, Union

from .errors import (
    ChainViolation,
    CoverViolation,
    DuplicateLabel,
    IndexOutOfRange,
    MalformedInput,
    NotASubset,
    TooLarge,
    UnknownLabel,
)

#: Hard cap on exhaustive enumeration of global assignments (2**24 cases).
ENUMERATION_LIMIT = 24

#: Hard cap on the settings**parties contexts of a Bell scenario.
BELL_CONTEXT_LIMIT = 1 << 12

#: Entries kept by each scenario-keyed cache of the modules built on this one:
#: more than one benchmark pass touches, few enough that a long-lived process
#: serving many scenarios keeps a bounded set of tables.
SCENARIO_CACHE_SIZE = 256


def is_bit(x) -> bool:
    """True iff ``x`` is an ``int`` (not a ``bool``) equal to 0 or 1."""
    return isinstance(x, int) and not isinstance(x, bool) and x in (0, 1)


def shown(x) -> str:
    """``repr(x)`` cut to 40 characters; an int or Fraction past 64 bits by its size.

    repr refuses an int past 4 300 digits, a Fraction's parts and a
    container's items included; such a container is named by its type.
    """
    if isinstance(x, int) and x.bit_length() > 64:
        return f"of {x.bit_length()} bits"
    if isinstance(x, Fraction) and max(x.numerator.bit_length(), x.denominator.bit_length()) > 64:
        return f"Fraction of {x.numerator.bit_length()}/{x.denominator.bit_length()} bits"
    try:
        return repr(x)[:40]
    except ValueError:
        return f"{type(x).__name__} holding an int past 4 300 digits"


def sequence_getter(positions: list):
    """``itemgetter`` over ``positions`` that returns a sequence even for one position."""
    if len(positions) > 1:
        return itemgetter(*positions)
    # A slice, so the getter still returns a sequence.
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


@dataclass(frozen=True)
class MeasurementScenario:
    """A set of observables together with a cover of measurement contexts.

    ``observables`` is the full ordered list of measurement labels and
    ``contexts`` the ordered cover (each context an ordered label tuple).
    Every observable is dichotomic, with outcomes 0 and 1.
    """

    observables: tuple[str, ...]
    contexts: tuple[tuple[str, ...], ...]

    @property
    def n_contexts(self) -> int:
        return len(self.contexts)

    def context(self, c: int) -> tuple[str, ...]:
        """The labels of context ``c``, the one context-index check.

        MalformedInput unless ``c`` is an int (not a bool); IndexOutOfRange outside the cover.
        """
        if not isinstance(c, int) or isinstance(c, bool):
            raise MalformedInput(f"context index must be an int, got {shown(c)}")
        if not 0 <= c < len(self.contexts):
            raise IndexOutOfRange(f"context index {shown(c)} not in 0..{len(self.contexts) - 1}")
        return self.contexts[c]

    def n_sections(self, c: int) -> int:
        """Number of sections of context ``c`` (2**|C|)."""
        return 1 << len(self.context(c))


def make_scenario(
    observables: Sequence[str], contexts: Iterable[Sequence[str]]
) -> MeasurementScenario:
    """Validate and build a measurement scenario.

    Enforces the cover conditions: there is at least one context, every
    observable occurs in at least one context, no context is contained in
    another (antichain), and every context is a nonempty duplicate-free tuple
    of known labels.  A label that is not a string, or contains the "|" that
    joins the labels of a context key in the JSON formats, raises
    MalformedInput.
    """
    obs = tuple(observables)
    if len(set(obs)) != len(obs):
        raise DuplicateLabel(f"duplicate observable label in {obs}")
    if not all(isinstance(label, str) and "|" not in label for label in obs):
        raise MalformedInput(f"observable labels in {obs} must be strings without '|'")
    known = set(obs)

    ctxs: list[tuple[str, ...]] = []
    for raw in contexts:
        ctx = tuple(raw)
        if not ctx:
            raise ChainViolation("empty context")
        if len(set(ctx)) != len(ctx):
            raise DuplicateLabel(f"duplicate label inside context {ctx}")
        for label in ctx:
            if label not in known:
                raise UnknownLabel(f"context {ctx} references unknown observable {label!r}")
        ctxs.append(ctx)
    if not ctxs:
        raise CoverViolation("the cover has no contexts")

    # Antichain check: a context can only be contained in a strictly larger
    # one or equal to one of its own size, so equal sizes share a set.
    by_size: dict[int, dict[frozenset, tuple[str, ...]]] = {}
    for ctx in ctxs:
        same = by_size.setdefault(len(ctx), {})
        key = frozenset(ctx)
        if key in same:
            raise ChainViolation(f"context {ctx} is contained in context {same[key]}")
        same[key] = ctx
    for ctx in ctxs:
        key = frozenset(ctx)
        for size, larger in by_size.items():
            if size > len(ctx):
                for other_key, other in larger.items():
                    if key < other_key:
                        raise ChainViolation(
                            f"context {ctx} is contained in context {other}"
                        )

    covered = set(itertools.chain.from_iterable(ctxs))
    missing = [x for x in obs if x not in covered]
    if missing:
        raise CoverViolation(f"observables {missing} occur in no context")

    return MeasurementScenario(observables=obs, contexts=tuple(ctxs))


def party_label(party: int, setting: int) -> str:
    """Label of 1-based ``party``'s measurement ``setting`` (0-based).

    Setting 0 is the unprimed observable ("X1"), each further setting adds a
    prime, rendered as a "p" suffix ("X1p", "X1pp", ...).
    """
    return f"X{party}" + "p" * setting


def bell_scenario(n_parties: int, settings: int) -> MeasurementScenario:
    """The (n, m, 2) scenario: one observable per party-setting pair.

    Contexts pick one setting per party and are ordered lexicographically by
    the setting tuple, so for (3, 2) the context order is
    (0,0,0), (0,0,1), ..., (1,1,1).  A count that is not an int, or is a
    bool, raises MalformedInput; TooLarge above the observable or context
    guard, both before any context is built.
    """
    for count in (n_parties, settings):
        if not isinstance(count, int) or isinstance(count, bool):
            raise MalformedInput(f"party and setting counts must be ints, got {shown(count)}")
    if n_parties < 1 or settings < 1:
        raise IndexOutOfRange("need at least one party and one setting")
    if n_parties * settings > ENUMERATION_LIMIT:
        raise TooLarge(
            f"{shown(n_parties * settings)} observables exceed the 2**{ENUMERATION_LIMIT} "
            "enumeration guard"
        )
    if settings ** n_parties > BELL_CONTEXT_LIMIT:
        raise TooLarge(
            f"{settings ** n_parties} contexts exceed the {BELL_CONTEXT_LIMIT} context guard"
        )
    observables = tuple(
        party_label(i, j) for i in range(1, n_parties + 1) for j in range(settings)
    )
    contexts = [
        tuple(party_label(i + 1, choice[i]) for i in range(n_parties))
        for choice in itertools.product(range(settings), repeat=n_parties)
    ]
    return make_scenario(observables, contexts)


def context_setting_bits(
    s: MeasurementScenario, c: int
) -> Union[tuple[int, ...], None]:
    """Per-party setting choices of context ``c`` for Bell-product scenarios.

    Returns None when the context's labels do not follow the
    :func:`party_label` convention (general covers have no setting tuple).
    """
    bits = []
    for party, label in enumerate(s.context(c), start=1):
        base = f"X{party}"
        primes = label[len(base):]
        if not label.startswith(base) or primes.strip("p"):
            return None
        bits.append(len(primes))
    return tuple(bits)


def label_positions(domain: tuple[str, ...], target: Sequence[str]) -> tuple[int, ...]:
    """The index in ``domain`` of each label of ``target``, in target order.

    Raises DuplicateLabel for a repeated target label and NotASubset for a
    target label outside ``domain``.
    """
    if len(set(target)) != len(target):
        raise DuplicateLabel(f"duplicate label in {target}")
    lookup = {label: k for k, label in enumerate(domain)}
    for label in target:
        if label not in lookup:
            raise NotASubset(f"{label!r} is not in the domain {domain}")
    return tuple(lookup[label] for label in target)


def projection(domain: tuple[str, ...], target: tuple[str, ...]) -> tuple[int, ...]:
    """The restriction map from the sections of ``domain`` to those of ``target``.

    Entry ``i`` is the canonical index of section ``i`` of ``domain``
    restricted to ``target`` (values copied in target order).  ``domain`` is
    a context, or the scenario's observables for global assignments.  Raises
    DuplicateLabel for a repeated target label, NotASubset for a target label
    outside ``domain`` and TooLarge above the enumeration guard, all before
    any section is enumerated.
    """
    positions = label_positions(domain, target)
    width = len(domain)
    if width > ENUMERATION_LIMIT:
        raise TooLarge(f"{width} observables exceed the 2**{ENUMERATION_LIMIT} enumeration guard")
    shifts = [width - 1 - k for k in positions]
    table = []
    for i in range(1 << width):
        idx = 0
        for sh in shifts:
            idx = (idx << 1) | ((i >> sh) & 1)
        table.append(idx)
    return tuple(table)


def overlaps(s: MeasurementScenario) -> tuple[tuple[int, int, tuple[str, ...]], ...]:
    """``(a, b, shared)`` for each context pair ``a < b`` sharing a label, in canonical order.

    ``shared`` lists the common labels in scenario observable order.  Contexts
    are indexed by label, so the cost follows the pairs that share a label,
    not all pairs of contexts.
    """
    holders: dict[str, list[int]] = {}
    for c, ctx in enumerate(s.contexts):
        for x in ctx:
            holders.setdefault(x, []).append(c)
    shared: dict[tuple[int, int], list[str]] = {}
    for x in s.observables:
        for a, b in itertools.combinations(holders[x], 2):
            shared.setdefault((a, b), []).append(x)
    return tuple((a, b, tuple(shared[a, b])) for a, b in sorted(shared))


@lru_cache(maxsize=SCENARIO_CACHE_SIZE)
def cover_automorphisms(s: MeasurementScenario) -> tuple[tuple[int, ...], ...]:
    """Generators of the observable permutations that map the cover onto itself.

    A permutation of the observables is an automorphism of the cover when it
    maps every context, as a label set, onto a context; it then permutes the
    contexts, and each generator is given as that context permutation
    ``perm``, context ``c`` going to context ``perm[c]``.

    Observables held by the same contexts are twins: permuting them moves no
    context, so the search maps whole twin classes onto classes of their
    size, and a cover with no other symmetry has no generators.  It is a stabiliser chain (individualisation and refinement, as in
    McKay and Piperno, J. Symb. Comput. 60, 94, 2014).  The base is every
    class, in breadth-first order over shared contexts.  From the last base
    point back to the first, for each target outside the base point's orbit
    under the generators found so far, one automorphism is sought that fixes
    the earlier base points and sends the base point to the target; a
    partial map is cut as soon as the mapped part of a context lies inside
    no context of its size.  The group itself is never listed.
    """
    index = {label: k for k, label in enumerate(s.observables)}
    held = [0] * len(s.observables)  # bitmask of the contexts holding each observable
    for c, ctx in enumerate(s.contexts):
        for label in ctx:
            held[index[label]] |= 1 << c
    class_size: dict[int, int] = {}  # one twin class per mask, in order of first observable
    for mask in held:
        class_size[mask] = class_size.get(mask, 0) + 1
    holders, sizes = list(class_size), list(class_size.values())
    n = len(holders)
    members = [[k for k, mask in enumerate(holders) if (mask >> c) & 1] for c in range(s.n_contexts)]
    held_in = [[c for c in range(s.n_contexts) if (mask >> c) & 1] for mask in holders]
    base: list[int] = []
    read = 0
    for root in range(n):
        if root not in base:
            base.append(root)
        while read < len(base):  # breadth first over shared contexts
            for c in held_in[base[read]]:
                base += [y for y in members[c] if y not in base]
            read += 1

    def extend(depth, image, used, fit, forced):
        """Complete ``image`` on ``base[depth:]``, or return None if it cannot be.

        ``fit[c]`` is the bitmask of the contexts of context ``c``'s size
        that hold the images of its mapped classes; ``forced`` lists the
        images of the first base points.
        """
        if depth == n:
            return image
        x = base[depth]
        for y in forced[depth:depth + 1] or range(n):
            if (used >> y) & 1 or sizes[y] != sizes[x]:
                continue
            narrowed = list(fit)
            for c in held_in[x]:
                narrowed[c] &= holders[y]
                if not narrowed[c]:
                    break
            else:
                image[x] = y
                complete = extend(depth + 1, image, used | 1 << y, narrowed, forced)
                if complete is not None:
                    return complete
        return None

    def close(orbit):
        """Extend ``orbit`` in place to its closure under the generators found so far."""
        for x in orbit:
            for g in found:
                if g[x] not in orbit:
                    orbit.append(g[x])

    # Before any class is mapped, a context fits every context of its size.
    start = [
        sum(1 << d for d, other in enumerate(s.contexts) if len(other) == len(ctx))
        for ctx in s.contexts
    ]
    found: list[list[int]] = []  # each a permutation of the classes, image by class
    for level in reversed(range(n)):
        orbit = [base[level]]
        close(orbit)
        for target in base[level + 1:]:  # the earlier base points are fixed
            if target in orbit:
                continue
            image = extend(0, [0] * n, 0, start, base[:level] + [target])
            if image is not None:
                found.append(image)
                close(orbit)
    # A context is the union of the classes it holds; each generator moves a
    # class, so it moves the contexts holding that class.
    context_of = {frozenset(ctx): c for c, ctx in enumerate(members)}
    return tuple(
        tuple(context_of[frozenset(g[k] for k in ctx)] for ctx in members) for g in found
    )


@lru_cache(maxsize=None)
def parity_mask(width: int, parity: int) -> int:
    """Bitmask of the sections of a ``width``-observable context whose outcome XOR is ``parity``."""
    return sum(1 << sec for sec in range(1 << width) if sec.bit_count() & 1 == parity)


def gf2_eliminate(masks: Sequence[int]):
    """Row-echelon elimination over GF(2) with provenance tracking.

    Equation ``i`` is ``parity(masks[i] & x) == b_i`` over the bits of ``x``,
    with the right-hand side ``b`` left open: pivot choice depends on the
    masks alone.  Rows are (coefficient mask, combination mask over the
    original equations), and a row's right-hand side is the parity of ``b``
    on its combination.  Returns (pivot rows, residual combinations): pivot
    rows are ``(variable, mask, combination)`` by ascending variable, each
    mask zero on every lower bit; each residual combination sums to the zero
    equation, so a ``b`` with odd parity on it certifies inconsistency.
    """
    rows = [(mask, 1 << i) for i, mask in enumerate(masks)]
    pivots = []
    n_vars = max((m.bit_length() for m in masks), default=0)
    for var in range(n_vars):
        bit = 1 << var
        pivot = next((row for row in rows if row[0] & bit), None)
        if pivot is None:
            continue
        rows = [
            (row[0] ^ pivot[0], row[1] ^ pivot[1]) if row[0] & bit else row
            for row in rows
            if row is not pivot
        ]
        pivots.append((var, *pivot))
    return tuple(pivots), tuple(combo for _, combo in rows)


def gf2_back_substitute(pivots, rhs: int) -> int:
    """The solution of the pivot rows of :func:`gf2_eliminate` with every free variable 0.

    ``rhs`` is the right-hand side as a bitmask over the original equations;
    each pivot variable is solved from its row, last pivot first.
    """
    x = 0
    for var, mask, combo in reversed(pivots):
        if ((combo & rhs).bit_count() ^ (mask & x).bit_count()) & 1:
            x |= 1 << var
    return x


def section_index(values: Sequence[int]) -> int:
    """Canonical index of a section: its values read as a big-endian binary number."""
    idx = 0
    for v in values:
        idx = (idx << 1) | v
    return idx


def section_values(idx: int, width: int) -> tuple[int, ...]:
    """Inverse of :func:`section_index` for a context of ``width`` observables."""
    return tuple((idx >> (width - 1 - k)) & 1 for k in range(width))


def polytope_dimension(
    settings_per_party: Sequence[int],
    outcomes_per_setting: Sequence[Sequence[int]],
) -> int:
    """Dimension of the no-signaling polytope of an (n, m, o) box scenario.

    ``settings_per_party[i]`` is the number of settings of party ``i`` and
    ``outcomes_per_setting[i][j]`` the outcome count of that party's setting
    ``j``.  The value is  prod_i (sum_j (o_ij - 1) + 1) - 1.
    """
    if len(settings_per_party) != len(outcomes_per_setting):
        raise IndexOutOfRange(
            f"settings list covers {len(settings_per_party)} parties but the "
            f"outcomes matrix has {len(outcomes_per_setting)} rows"
        )
    dim = 1
    for m_i, outcomes in zip(settings_per_party, outcomes_per_setting):
        if m_i < 1:
            raise IndexOutOfRange(f"party needs at least one setting, got {m_i}")
        if len(outcomes) != m_i:
            raise IndexOutOfRange(
                f"party declares {m_i} settings but {len(outcomes)} outcome counts"
            )
        acc = 1
        for o in outcomes:
            if o < 1:
                raise IndexOutOfRange(f"setting needs at least one outcome, got {o}")
            acc += o - 1
        dim *= acc
    return dim - 1


_BELL_TOKEN = re.compile(r"bell-([0-9]+)-([0-9]+)(?:-([0-9]+))?")
#: Most digits a Bell token count may have: far past every guard, and far
#: below the 4 300 digits ``int()`` refuses with a bare ValueError.
_BELL_COUNT_DIGITS = 9


def parse_bell_token(token: str) -> MeasurementScenario:
    """Parse "bell-<parties>-<settings>[-<outcomes>]" into a Bell scenario.

    Each count is a run of ASCII digits; anything else (signs, spaces,
    underscores, other digits) raises UnknownLabel, and a run of more than
    ``_BELL_COUNT_DIGITS`` digits TooLarge before it is read.  The trailing
    outcome count is optional and must be 2 when present.
    """
    match = _BELL_TOKEN.fullmatch(token)
    if match is None:
        raise UnknownLabel(f"not a bell scenario token: {token!r}")
    if max(len(count or "") for count in match.groups()) > _BELL_COUNT_DIGITS:
        raise TooLarge(f"a count has more than {_BELL_COUNT_DIGITS} digits in {shown(token)}")
    parties, settings, outcomes = match.groups()
    if outcomes is not None and int(outcomes) != 2:
        raise TooLarge(f"only 2-outcome scenarios are supported, got {token!r}")
    return bell_scenario(int(parties), int(settings))


def bell_token(s: MeasurementScenario) -> Union[str, None]:
    """Inverse of :func:`parse_bell_token`; None when ``s`` is not Bell-shaped."""
    n = len(s.contexts[0])
    if len(s.observables) % n:
        return None
    m = len(s.observables) // n
    try:
        candidate = bell_scenario(n, m)
    except TooLarge:
        return None  # no token names a scenario past the guards
    return f"bell-{n}-{m}-2" if candidate == s else None


# --- JSON ------------------------------------------------------------------

def scenario_to_dict(s: MeasurementScenario) -> dict:
    """JSON form: {"observables": [...], "contexts": [[...], ...], "outcomes": 2}."""
    return {
        "observables": list(s.observables),
        "contexts": [list(c) for c in s.contexts],
        "outcomes": 2,
    }


def expect_json(value, kind: type, what: str):
    """``value`` itself if it is a JSON object (``dict``) or array (``list``) as required.

    Loaders call this on every field of a parsed document before using it,
    so a malformed document raises MalformedInput instead of a TypeError.
    """
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "an array"
        raise MalformedInput(f"{what} must be {expected}, got {type(value).__name__}")
    return value


def json_field(data: dict, name: str):
    """The required field ``name`` of a JSON object; MalformedInput naming it when missing."""
    if name not in data:
        raise MalformedInput(f"missing field {name!r}")
    return data[name]


def _label_list(value, what: str) -> list[str]:
    labels = expect_json(value, list, what)
    if not all(isinstance(label, str) for label in labels):
        raise MalformedInput(f"{what} must hold only label strings")
    return labels


def scenario_from_dict(data: dict) -> MeasurementScenario:
    """Parse and re-validate the JSON form produced by :func:`scenario_to_dict`.

    ``outcomes`` (default 2) is an int, not a bool (else MalformedInput), and 2 (else TooLarge).
    """
    expect_json(data, dict, "scenario")
    outcomes = data.get("outcomes", 2)
    if not isinstance(outcomes, int) or isinstance(outcomes, bool):
        raise MalformedInput(f"outcomes must be an int, got {shown(outcomes)}")
    if outcomes != 2:
        raise TooLarge(f"only dichotomic scenarios are supported, got outcomes={shown(outcomes)}")
    contexts = expect_json(json_field(data, "contexts"), list, "contexts")
    return make_scenario(
        _label_list(json_field(data, "observables"), "observables"),
        [_label_list(ctx, "a context") for ctx in contexts],
    )
