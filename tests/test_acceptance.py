"""Acceptance suite: one test per numbered criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines as they
print.  Two of the paper's claims about the eight-parameter scans are false:
over placed values {1/8, 1/4} the pair scan never reaches CF 0 (criterion 8a,
second clause), and CF is not 1 on the whole p1 = 1/4 slice (criterion 8b).
Those two checks assert what holds instead, and each expected value comes
from an independent certificate rather than from the LP under test: the
brute-force bounds of ``_oracles.ncf_bounds_322``, a GF(2) brute force over
the 64 global assignments, and an explicit global distribution.
"""

from __future__ import annotations

import ast
import itertools
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from amcc.analysis import classify, contextual_fraction
from amcc.applications import (
    min_entropy,
    secret_share_simulate,
)
from amcc.catalog import asymmetric_scc_model, ghz_model, pr_box, three_way_box
from amcc.construct import (
    csp_enumerate_extension,
    csp_extension_preset,
    eight_param_family,
    enumerate_parity,
    parity_system,
    parity_to_possibilistic,
    scan_eight_param,
    scan_eight_param_pairs,
    three_param_family,
)
from amcc.empirical import (
    deterministic_model,
    is_maximal_marginal,
    lift_uniform,
    marginal,
    proper_subsets,
)
from amcc.scenario import bell_scenario

import property_suites
from _generators import fraction_rows
from _oracles import (
    BELL_322_ASSIGNMENTS,
    global_marginals_322,
    ncf_bounds_322,
    parity_solutions_322,
)

F = Fraction
H = F(1, 2)
Q = F(1, 4)
S22 = bell_scenario(2, 2)
S32 = bell_scenario(3, 2)


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" :: {detail}"
    print(line, flush=True)
    return ok


def test_criterion_01_pr_box_suite():
    start = time.perf_counter()
    ok = True
    for alpha, beta, gamma in itertools.product((0, 1), repeat=3):
        rep = classify(pr_box(alpha, beta, gamma))
        ok &= rep.cf == 1 and rep.maximal_marginal and rep.amcc
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert report("1 (PR boxes)", ok, f"8 boxes classified in {elapsed:.3f}s")


def test_criterion_02_ghz():
    start = time.perf_counter()
    model = ghz_model()
    ok = contextual_fraction(model) == 1 and model.den == 8
    for c in range(8):
        ctx = model.scenario.contexts[c]
        for single in ctx:
            ok &= marginal(model, c, (single,)) == (4, 4)
        for pair in itertools.combinations(ctx, 2):
            ok &= marginal(model, c, pair) == (2, 2, 2, 2)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert report("2 (GHZ)", ok, f"CF=1 and all marginals uniform in {elapsed:.3f}s")


def test_criterion_03_three_way_box():
    start = time.perf_counter()
    ok = classify(three_way_box()).amcc
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert report("3 (three-way box)", ok, f"AMCC in {elapsed:.3f}s")


def test_criterion_04_asymmetric_table():
    start = time.perf_counter()
    rep = classify(asymmetric_scc_model())
    ok = rep.cf == 1 and not rep.maximal_marginal and not rep.amcc
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert report(
        "4 (asymmetric table)", ok,
        f"CF=1, maximal_marginal=False, AMCC=False in {elapsed:.3f}s",
    )


def test_criterion_05_parity_enumeration_322():
    start = time.perf_counter()
    rep = enumerate_parity(S32)
    elapsed = time.perf_counter() - start
    amcc_inconsistent = sum(
        1 for v in rep.verdicts if not v.consistent and v.amcc
    )
    ok = (
        rep.total == 256
        and rep.consistent_count == 16  # 2**rank of the GF(2) context matrix
        and amcc_inconsistent == 240
        and rep.amcc_count == 240
        and elapsed < 30.0
    )
    assert report(
        "5 (parity enumeration 3-2-2)", ok,
        f"total=256 consistent=16 amcc=240 in {elapsed:.2f}s",
    )


def test_criterion_06_parity_enumeration_222():
    start = time.perf_counter()
    rep = enumerate_parity(S22)
    inconsistent = [v for v in rep.verdicts if not v.consistent]
    lifted = {
        fraction_rows(lift_uniform(parity_to_possibilistic(parity_system(S22, v.parities))))
        for v in inconsistent
    }
    boxes = {
        fraction_rows(pr_box(a, b, g)) for a, b, g in itertools.product((0, 1), repeat=3)
    }
    elapsed = time.perf_counter() - start
    ok = len(inconsistent) == 8 and lifted == boxes and elapsed < 1.0
    assert report(
        "6 (parity enumeration 2-2-2)", ok,
        f"8 inconsistent vectors; lifts equal the 8 PR boxes ({elapsed:.3f}s)",
    )


def test_criterion_07_csp_enumeration():
    start = time.perf_counter()
    base, extendable = csp_extension_preset("eq40")
    rep = csp_enumerate_extension(base, extendable, jobs=1)
    elapsed = time.perf_counter() - start
    masks = list(base.masks)
    for c in extendable:
        masks[c] |= (1 << 4) | (1 << 7)
    has_example = any(c.support_masks == tuple(masks) for c in rep.passing)
    ok = (
        rep.candidates == 65536
        and rep.passing_count == 2401
        and has_example
        and elapsed < 60.0
    )
    assert report(
        "7 (CSP enumeration)", ok,
        f"65536 candidates, 2401 pass, example present in {elapsed:.2f}s",
    )


@lru_cache(maxsize=None)
def _strict_pair_scan():
    return scan_eight_param_pairs([F(1, 8), Q])


@lru_cache(maxsize=None)
def _inclusive_pair_scan():
    return scan_eight_param_pairs([F(0), F(1, 8), Q])


@lru_cache(maxsize=None)
def _slice_scan():
    return scan_eight_param([F(0), F(1, 16), F(1, 8)], fixed={1: Q})


def _oracle_scan(rep):
    """Brute-force bounds at every scan point, from :func:`ncf_bounds_322`.

    Returns the histogram of ``1 - upper`` (the least CF the single-context
    dual allows), the points where ``lower == upper == 1 - CF`` fails,
    and the points where ``lower <= 1 - CF <= upper`` fails.
    """
    histogram = Counter()
    not_pinned = []
    outside = []
    for point in rep.points:
        _, lower, upper = ncf_bounds_322(fraction_rows(eight_param_family(point.params)))
        histogram[1 - upper] += 1
        if not lower == upper == 1 - point.cf:
            not_pinned.append(point)
        if not lower <= 1 - point.cf <= upper:
            outside.append(point)
    return dict(histogram), not_pinned, outside


#: (1/4, 1/8, ..., 1/8): on the p1 = 1/4 slice, noncontextual (CF 0).
EVEN_PARITY_POINT = (Q,) + (F(1, 8),) * 7


def _even_parity_marginals_match() -> bool:
    """Whether EVEN_PARITY_POINT's table is, entry by entry, the marginals of
    the uniform distribution over the 32 global assignments with X1+X2+X3
    even (an explicit global distribution, so its CF is 0)."""
    even = {
        g: F(1, 32) for g in BELL_322_ASSIGNMENTS if (g[0] + g[2] + g[4]) % 2 == 0
    }
    table = [list(row) for row in fraction_rows(eight_param_family(EVEN_PARITY_POINT))]
    return len(even) == 32 and global_marginals_322(even) == table


def test_criterion_08a_pair_scan():
    """Pair scan: two of the eight parameters placed, the rest 0.

    The paper claims that over the placed values {1/8, 1/4} the CF takes
    exactly the values 0, 1/2 and 1.  Only the first half holds: the values
    lie in {0, 1/2, 1} but are {1/2, 1}, and CF 0 needs a placed 0 (over
    {0, 1/8, 1/4} all three are attained).  Every point of both scans is
    pinned by the brute-force oracle, independently of the LP: its uniform
    witness and its single-context dual meet at 1 - CF.  Over {1/8, 1/4} the
    dual is at most 1/2 everywhere, so no point can have CF 0.
    """
    start = time.perf_counter()
    strict = _strict_pair_scan()
    inclusive = _inclusive_pair_scan()
    elapsed = time.perf_counter() - start
    values = {cf for cf, _ in strict.histogram}
    subset_ok = values <= {F(0), H, F(1)}
    strict_oracle, strict_loose, _ = _oracle_scan(strict)
    inclusive_oracle, inclusive_loose, _ = _oracle_scan(inclusive)
    strict_expected = {H: 28, F(1): 84}
    inclusive_expected = {F(0): 28, H: 84, F(1): 140}
    histogram = {str(k): v for k, v in strict.histogram}
    inclusive_histogram = {str(k): v for k, v in inclusive.histogram}
    even_ok = _even_parity_marginals_match()
    even_cf = contextual_fraction(eight_param_family(EVEN_PARITY_POINT))
    pinned = not strict_loose and not inclusive_loose
    ok = (
        subset_ok
        and pinned
        and dict(strict.histogram) == strict_oracle == strict_expected
        and dict(inclusive.histogram) == inclusive_oracle == inclusive_expected
        and even_ok
        and even_cf == 0
        and elapsed < 300.0
    )
    report(
        "8a (pair scan, values {1/8,1/4})", ok,
        f"histogram {histogram}; with 0 placeable {inclusive_histogram}; "
        f"support-subset={subset_ok}, oracle pins all {len(strict.points)}+"
        f"{len(inclusive.points)} points={pinned}, CF at "
        f"(1/4,1/8,...,1/8)={even_cf} in {elapsed:.2f}s",
    )
    assert subset_ok, f"CF values {histogram} are not within {{0, 1/2, 1}}"
    assert elapsed < 300.0
    assert strict_oracle == strict_expected, strict_oracle
    assert inclusive_oracle == inclusive_expected, inclusive_oracle
    assert dict(strict.histogram) == strict_oracle, (
        "The paper claims CF values {0, 1/2, 1}, all attained, over placed values "
        "{1/8, 1/4}. The oracle's single-context dual bounds the noncontextual "
        "fraction by 1/2 at every such point, so CF 0 cannot occur: the values "
        f"are {{1/2: 28, 1: 84}}, but the LP gives {histogram}."
    )
    assert dict(inclusive.histogram) == inclusive_oracle, (
        "over placed values {0, 1/8, 1/4} the oracle gives "
        f"{{0: 28, 1/2: 84, 1: 140}}, but the LP gives {inclusive_histogram}"
    )
    assert pinned, (
        "the oracle's uniform witness and single-context dual must both equal "
        "1 - CF at every pair-scan point; they do not at "
        f"{[tuple(str(x) for x in p.params) for p in strict_loose + inclusive_loose][:3]}"
    )
    assert even_ok and even_cf == 0, (
        "(1/4, 1/8, ..., 1/8) is the marginal family of the uniform distribution "
        f"over the 32 assignments with X1+X2+X3 even, so its CF is 0, not {even_cf}"
    )


def test_criterion_08b_slice_scan():
    """Slice p1 = 1/4, the other seven parameters over {0, 1/16, 1/8}.

    The paper claims CF = 1 at all 2187 points; that is false.  The point
    (1/4, 1/8, ..., 1/8) is entrywise the marginals of the uniform
    distribution over the 32 global assignments with X1+X2+X3 even, so its
    CF is 0.  Checked instead: a row with p = 1/4 forces even parity and a
    row with p = 0 forces odd parity (the other rows have full support), and
    CF = 1 exactly where that GF(2) system has no solution among the 64
    global assignments, which a brute force finds at 435 points.  At every
    point the oracle's uniform witness and single-context dual bracket
    1 - CF.
    """
    start = time.perf_counter()
    rep = _slice_scan()
    elapsed = time.perf_counter() - start
    histogram = {str(k): v for k, v in rep.histogram}
    unsolvable = set()
    for point in rep.points:
        parities = {
            c: 0 if p == Q else 1 for c, p in enumerate(point.params) if p in (0, Q)
        }
        if not parity_solutions_322(parities):
            unsolvable.add(point.params)
    cf_one = {p.params for p in rep.points if p.cf == 1}
    _, _, outside = _oracle_scan(rep)
    even_ok = _even_parity_marginals_match()
    even_cf = next(p.cf for p in rep.points if p.params == EVEN_PARITY_POINT)
    ok = (
        len(rep.points) == 2187
        and len(unsolvable) == 435
        and cf_one == unsolvable
        and not outside
        and even_ok
        and even_cf == 0
        and elapsed < 300.0
    )
    report(
        "8b (p1=1/4 slice)", ok,
        f"{len(rep.points)} points, CF=1 at {len(cf_one)}, parity system "
        f"unsolvable at {len(unsolvable)}; oracle brackets 1-CF at "
        f"{len(rep.points) - len(outside)}; CF at (1/4,1/8,...,1/8)={even_cf}; "
        f"histogram {histogram} in {elapsed:.2f}s",
    )
    assert len(rep.points) == 2187 and elapsed < 300.0
    assert even_ok and even_cf == 0, (
        "The paper claims CF = 1 on the whole p1 = 1/4 slice, but "
        "(1/4, 1/8, ..., 1/8) is the marginal family of the uniform distribution "
        f"over the 32 assignments with X1+X2+X3 even, so its CF is 0, not {even_cf}."
    )
    assert len(unsolvable) == 435
    assert cf_one == unsolvable, (
        "CF = 1 must hold exactly where the parity rows pinned by p = 1/4 (even) "
        "and p = 0 (odd) have no common solution; they differ at "
        f"{[tuple(str(x) for x in p) for p in sorted(cf_one ^ unsolvable)][:3]}"
    )
    assert not outside, (
        "the oracle's bounds must bracket 1 - CF at every slice point; they do "
        f"not at {[tuple(str(x) for x in p.params) for p in outside][:3]}"
    )


def test_criterion_09_three_param_family():
    start = time.perf_counter()
    ok = classify(three_param_family(Q, 0, Q)).amcc

    points = []
    for p2 in (F(1, 16), F(1, 8), F(1, 5), F(1, 4), F(3, 8)):
        hi = p2 / 2 + Q
        for t in (F(1, 4), H):
            p1 = p2 + t * (hi - p2)
            bound = min(p1, H - p1, 2 * p1 - p2)
            for u in (F(1, 3), F(2, 3)):
                points.append((p1, p2, u * bound))
    assert len(points) == 20
    for p1, p2, p3 in points:
        rep = classify(three_param_family(p1, p2, p3))
        ok &= rep.strongly_contextual and not rep.maximal_marginal
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    assert report(
        "9 (three-parameter family)", ok,
        f"AMCC at (1/4,0,1/4); 20 interior samples strongly contextual and "
        f"non-maximal in {elapsed:.2f}s",
    )


def test_criterion_10_property_suites():
    ok = True
    for name, suite in property_suites.ALL_SUITES:
        start = time.perf_counter()
        suite()
        elapsed = time.perf_counter() - start
        report(f"10 (properties: {name})", True, f"500 cases in {elapsed:.1f}s")
    suites = len(property_suites.ALL_SUITES)
    assert report("10 (property suites)", ok, f"{suites} suites, 500 generated cases each")


def test_criterion_11_applications():
    start = time.perf_counter()
    models = [
        ghz_model(),
        three_way_box(),
        pr_box(0, 0, 0),
        pr_box(1, 1, 1),
        asymmetric_scc_model(),
        eight_param_family([F(1, 16)] * 8),
        three_param_family(F(1, 5), 0, F(1, 8)),
        deterministic_model(S22, (0, 0, 0, 0)),
    ]
    ok = all(
        all(
            min_entropy(m, c, subset).guess_probability == F(1, 1 << len(subset))
            for c in range(m.scenario.n_contexts)
            for subset in proper_subsets(m.scenario.contexts[c])
        )
        == is_maximal_marginal(m)[0]
        for m in models
    )

    for model in (ghz_model(), three_way_box(), pr_box(0, 0, 0)):
        for c in range(model.scenario.n_contexts):
            for subset in proper_subsets(model.scenario.contexts[c]):
                rep = min_entropy(model, c, subset)
                ok &= rep.min_entropy_bits == float(len(subset))
                ok &= rep.guess_probability == F(1, 1 << len(subset))

    ps = parity_system(S32, (0, 1, 1, 1, 1, 1, 1, 1))
    first = secret_share_simulate(ps, (1, 0, 1, 1, 0, 1, 0, 1), 1000, F(1, 5), 42)
    second = secret_share_simulate(ps, (1, 0, 1, 1, 0, 1, 0, 1), 1000, F(1, 5), 42)
    ok &= not first.aborted
    ok &= first.reconstructed_bits == first.secret_bits_sent
    ok &= len(first.rounds) == 1000
    ok &= first.transcript() == second.transcript()
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    assert report(
        "11 (applications)", ok,
        f"entropy certification matches marginals; 1000 honest rounds, 0 aborts, "
        f"reproducible transcript in {elapsed:.2f}s",
    )


def test_exploratory_scan_reports():
    """Non-gating records of the looser scan claims (always passes)."""
    inclusive = _inclusive_pair_scan()
    report(
        "exploratory (pair scan incl. zero)", True,
        f"values {{0,1/8,1/4}} give histogram "
        f"{ {str(k): v for k, v in inclusive.histogram} }; all of 0, 1/2, 1 attained",
    )
    rep = scan_eight_param_pairs([F(1, 16), F(3, 16)])
    report(
        "exploratory (two params at arbitrary values, rest 0)", True,
        f"values {{1/16,3/16}} give histogram { {str(k): v for k, v in rep.histogram} } "
        "(CF=1 is not universal for arbitrary two-parameter placements)",
    )


def test_oracles_import_nothing_from_amcc():
    """The 8a/8b certificates and the brute-force oracles share no code with the library."""
    path = Path(__file__).with_name("_oracles.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported  # the walk sees the imports that are there
    assert not [name for name in imported if name.split(".")[0] in ("amcc", "")], imported
