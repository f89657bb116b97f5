"""Byte-level pins on the JSON the library and the CLI emit, and on the simplex.

Each digest is the SHA-256 of output recorded before model rows were stored
as integer numerators over one denominator; any change to a verdict, a
rational's spelling or the LP's reported noncontextual part moves it.  The
simplex digest was recorded with the dense tableau, before the revised one:
it pins every pivot and every field of each outcome.  That digest and the
full classify one were re-recorded when the simplex came to enter on the
largest coefficient, which moves the pivots and, where the optimum is not
unique, the reported optimal vertex; the verdict and status-and-value
digests, recorded under Bland's rule, show that nothing else moved, and the
incidence oracle checks every reported noncontextual part.  The CSP stream
digest was recorded while the scan still walked ``itertools.product``
candidate by candidate, before it became a depth-first search.  The witness digest was
recorded while every marginal was summed entry by entry through
``projection``, before marginals were read through cached plans.  The
Boolean no-signaling, family and secret-sharing digests were recorded
before the Boolean check, the CSP search and the 26-parameter table read the
overlap plans of ``is_no_signaling``; the secret-sharing one pins the
transcript of a parity resource before the simulator takes other models.
The simplex digest and the full classify one were re-recorded again when
large CF LPs came to be solved on their coarsest equitable partition: the
LPs handed to the solver are then the reduced ones, and the bell-2-4 noisy
lifts report an optimum constant on the refined classes.  The simplex
digest was re-recorded once more when the LP came to take integer programs
only: the seeded programs and the 8b pivoting point's CF LP, written with
Fractions, are scaled to integers row by row before they are solved, and a
slack is priced in the units of its scaled row.  21 of the 400 seeded
programs take other pivots, with every status, value, primal and dual read
back in the program's own units as it was; the CF LP takes 57 pivots
instead of 31, to another optimal vertex with the same value and dual.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from unittest import mock

import pytest

from amcc import analysis, cli, ratlp
from amcc.analysis import classify
from amcc.catalog import asymmetric_scc_model, ghz_model, pr_box, three_way_box
from amcc.applications import secret_share_simulate
from amcc.construct import (
    boolean_no_signaling,
    eight_param_family,
    parity_system,
    parity_to_possibilistic,
    three_param_family,
    twentysix_param_family,
    twentysix_params_from_model,
)
from amcc.empirical import (
    EmpiricalModel,
    PossibilisticModel,
    deterministic_model,
    from_global_distribution,
    is_maximal_marginal,
    is_no_signaling,
    lift_uniform,
    make_model,
    mix,
    model_to_dict,
    possibilistic_collapse,
)
from amcc.errors import OutOfRange, SignalingDetected
from amcc.scenario import bell_scenario

from _generators import cycle_scenario, fraction_rows, integer_program, random_lp, rational
from _oracles import incidence_bruteforce
from test_ratlp import PIVOTING_POINT, cf_program

F = Fraction
Q = F(1, 4)


def _lift(s, parities):
    return lift_uniform(parity_to_possibilistic(parity_system(s, parities)))


def _models():
    yield from (pr_box(*bits) for bits in itertools.product((0, 1), repeat=3))
    yield from (ghz_model(), three_way_box(), asymmetric_scc_model())
    for n, step in ((2, 1), (3, 8)):
        s = bell_scenario(n, 2)
        for v in range(0, 1 << s.n_contexts, step):
            yield _lift(s, tuple((v >> c) & 1 for c in range(s.n_contexts)))
    # 8a pair points over {1/8, 1/4} and a sample of the 8b slice.
    for i, j in itertools.combinations(range(8), 2):
        for vi, vj in itertools.product((F(1, 8), Q), repeat=2):
            params = [F(0)] * 8
            params[i], params[j] = vi, vj
            yield eight_param_family(params)
    grid = (F(0), F(1, 16), F(1, 8))
    for k, rest in enumerate(itertools.product(grid, repeat=7)):
        if k % 27 == 0:
            yield eight_param_family((Q,) + rest)
    yield from _noisy_lifts_24()


def _odd_lift_and_noise_24():
    """bell-2-4, its one-odd-context lift and its uniform model."""
    s = bell_scenario(2, 4)
    odd = _lift(s, (1,) + (0,) * (s.n_contexts - 1))
    return s, odd, lift_uniform(PossibilisticModel(s, (0xF,) * s.n_contexts))


def _noisy_lifts_24():
    """The bell-2-4 one-odd-context lift mixed with uniform noise at five levels."""
    _, odd, noise = _odd_lift_and_noise_24()
    for lam in (F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(3, 4)):
        yield mix([odd, noise], [1 - lam, lam])


def _no_symmetry_model():
    """A bell-2-4 model no outcome flip fixes, so its CF LP is the full 64 x 256 LP.

    The one-odd-context lift 1/2, uniform noise 1/4 and the all-0 and all-1
    deterministic models 1/7 and 3/28; CF 1/4.
    """
    s, odd, noise = _odd_lift_and_noise_24()
    zeros, ones = (deterministic_model(s, (v,) * len(s.observables)) for v in (0, 1))
    return mix([odd, noise, zeros, ones], [F(1, 2), Q, F(1, 7), F(3, 28)])


def test_model_and_classify_json_match_the_pinned_digest():
    digest = hashlib.sha256()
    count = 0
    for model in _models():
        digest.update(json.dumps(model_to_dict(model)).encode() + b"\n")
        digest.update(json.dumps(classify(model).to_dict()).encode() + b"\n")
        count += 1
    assert count == 257
    assert digest.hexdigest() == (
        "87ac879f9e5d515980c4ef7a7dfef9b5801e877cf7d8531bb2718ffa0139ee1b"
    )


def _verdict(report: dict) -> dict:
    """A classify report without ``noncontextual_part``, which an LP with many optima may move."""
    witness = {k: v for k, v in report["witness"].items() if k != "noncontextual_part"}
    return {**report, "witness": witness}


def test_model_and_classify_verdicts_match_the_pinned_digest():
    # Recorded while the simplex entered on Bland's rule, before it entered
    # on the largest coefficient: every field but the noncontextual part.
    digest = hashlib.sha256()
    count = 0
    for model in _models():
        digest.update(json.dumps(model_to_dict(model)).encode() + b"\n")
        digest.update(json.dumps(_verdict(classify(model).to_dict())).encode() + b"\n")
        count += 1
    assert count == 257
    assert digest.hexdigest() == (
        "7fbd8f972501ebfd177753c078385174746cbe41a133b570fd028275a9d51603"
    )


def test_noncontextual_parts_are_certified_by_the_incidence_oracle():
    # Where the LP's optimum is not unique, the reported part may be any
    # optimum: it must be a subdistribution of weight 1 - CF under the model.
    for model in _models():
        report = classify(model)
        part = report.to_dict()["witness"].get("noncontextual_part")
        if report.cf == 1:
            assert part is None
            continue
        s = model.scenario
        weights = {int(bits, 2): F(w) for bits, w in part.items()}
        assert all(w >= 0 for w in weights.values())
        assert sum(weights.values()) == 1 - report.cf
        entries = [x for row in fraction_rows(model) for x in row]
        for row, x in zip(incidence_bruteforce(s.observables, s.contexts), entries, strict=True):
            assert sum(weights.get(g, 0) for g, _ in row) <= x


def test_parity_enumeration_stream_matches_the_pinned_digest(capsys):
    argv = ["enumerate", "parity", "--scenario", "bell-3-2-2", "--stream", "--jobs", "1"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 257
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2c1fc38a289dfc98b4524b84ad92c2a129617a099f7fe55bd1b687dad68a507a"
    )


def test_csp_enumeration_stream_matches_the_pinned_digest(capsys):
    argv = ["enumerate", "csp", "--preset", "eq40", "--stream", "--jobs", "1"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 2402  # 2 401 passing candidates and the counts
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "21b2eaa4f8a4f165ed43f042209be58313419d481a1b0e346dde9ca54ba4ec7b"
    )


def _text(q):
    return None if q is None else str(q)


def _pivot_log(monkeypatch) -> list:
    """A list that gets ``(row, column)`` of every simplex pivot from here on."""
    pivots = []
    real_pivot = ratlp._Tableau.pivot

    def logging_pivot(self, r, c, col):
        pivots.append((r, c))
        real_pivot(self, r, c, col)

    monkeypatch.setattr(ratlp._Tableau, "pivot", logging_pivot)
    return pivots


def _simplex_records(monkeypatch) -> list:
    """``[pivots, status, value, solution, dual]`` of each of 407 seeded and CF LPs.

    400 :func:`random_lp` programs, the CF LP of the 8b pivoting point, and
    the LPs ``contextual_fraction`` hands the solver: the orbit LPs of the
    noisy bell-2-4 lifts and the full LP of the model no flip fixes, each on
    its coarsest equitable partition.  Each is solved on
    :func:`integer_program` and recorded as :func:`rational` reads it, so a
    program written with Fractions is recorded in its own units; the CF LPs
    are integral already, and get the solver's own outcome back.
    """
    records = []
    pivots = _pivot_log(monkeypatch)

    def recording_maximize(lp):
        pivots.clear()
        program, row_scales, scale = integer_program(lp)
        raw = ratlp.maximize(program)
        out = rational(raw, row_scales, scale)
        records.append([
            list(pivots), out.status.value, _text(out.value),
            None if out.solution is None else [_text(q) for q in out.solution],
            None if out.dual is None else [_text(q) for q in out.dual],
        ])
        return raw

    rng = random.Random(20170505)
    for _ in range(400):
        recording_maximize(random_lp(rng))
    recording_maximize(cf_program(eight_param_family(PIVOTING_POINT)))
    monkeypatch.setattr(analysis, "maximize", recording_maximize)
    for model in _noisy_lifts_24():
        analysis.contextual_fraction(model)
    assert analysis.contextual_fraction(_no_symmetry_model()) == Q
    assert len(records) == 407
    assert len({record[1] for record in records}) == 3  # optimal, infeasible, unbounded
    return records


def test_simplex_pivots_and_outcomes_match_the_pinned_digest(monkeypatch):
    digest = hashlib.sha256()
    for record in _simplex_records(monkeypatch):
        digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == (
        "13a3bf73790ccf7add9f3fbbeb012cae4ee3cbd085057d0432f135458ef8a583"
    )


def test_simplex_statuses_and_values_match_the_pinned_digest(monkeypatch):
    # Recorded while the simplex entered on Bland's rule: the pivots and the
    # optimal vertex may move with the entering rule, the verdicts may not.
    digest = hashlib.sha256()
    for _, status, value, _, _ in _simplex_records(monkeypatch):
        digest.update(json.dumps([status, value]).encode() + b"\n")
    assert digest.hexdigest() == (
        "dab461efbb1e8f382fba92c6c32620863a807bc3d39b07847a654b25ca7a1f7b"
    )


def test_bell_42_mix_with_no_symmetry_pivots_737_times(monkeypatch):
    # The one-odd-context lift 1/2, uniform noise 1/4, and the all-0 and
    # all-1 deterministic models 1/7 and 3/28.  No outcome flip fixes the
    # mix, so its orbit LP is the full 256-row, 256-column CF LP: the
    # simplex, called on it directly, takes 737 pivots (Bland's rule alone
    # took 1 302).  Its coarsest equitable partition has 35 row and 35
    # column classes, and the CF solves that LP in 17 pivots.
    s = bell_scenario(4, 2)
    odd = _lift(s, (1,) + (0,) * (s.n_contexts - 1))
    noise = lift_uniform(PossibilisticModel(s, (0xFFFF,) * s.n_contexts))
    zeros, ones = (deterministic_model(s, (v,) * len(s.observables)) for v in (0, 1))
    model = mix([odd, noise, zeros, ones], [F(1, 2), Q, F(1, 7), F(3, 28)])
    pivots = _pivot_log(monkeypatch)
    assert analysis.contextual_fraction(model) == F(5, 14)
    assert len(pivots) == 17
    pivots.clear()
    full = ratlp.maximize(ratlp.LinearProgram(
        objective=(1,) * 256,
        a_le=analysis.incidence_matrix(s),
        b_le=tuple(x for row in model.numerators for x in row),
    ))
    assert rational(full).value == F(9, 14) * model.den
    assert len(pivots) == 737


def test_lp_scale_noisy_lifts_pivot_34_times(monkeypatch):
    # The CF LPs of the lp_scale benchmark workload: a pricing change or a
    # coarser partition that moves its pivots shows here.  Each orbit LP,
    # 32 x 128, is solved on its 6 x 20 equitable partition; unreduced,
    # the five took 113 pivots.
    pivots = _pivot_log(monkeypatch)
    cfs = [analysis.contextual_fraction(model) for model in _noisy_lifts_24()]
    assert cfs == [F(3, 4), F(1, 2), Q, 0, 0]  # noise 1/8, 1/4, 3/8, 1/2, 3/4
    assert len(pivots) == 34


def _bell_52_mix():
    """The bell-5-2 mix of the one-odd-context lift 1/2, uniform noise 1/4
    and the all-0 and all-1 deterministic models 1/7 and 3/28; CF 1/3.
    """
    s = bell_scenario(5, 2)
    odd = _lift(s, (1,) + (0,) * (s.n_contexts - 1))
    noise = lift_uniform(PossibilisticModel(s, ((1 << 32) - 1,) * s.n_contexts))
    zeros, ones = (deterministic_model(s, (v,) * len(s.observables)) for v in (0, 1))
    return mix([odd, noise, zeros, ones], [F(1, 2), Q, F(1, 7), F(3, 28)])


def test_bell_52_mix_at_the_lp_guard_matches_the_pinned_digest():
    # No flip fixes the bell-5-2 mix, so its orbit LP is the full 1 024 x
    # 1 024 incidence LP, the largest the LP guard admits; the digest pins
    # its report, the noncontextual part over the 1 024 global assignments
    # included.
    model = _bell_52_mix()
    s = model.scenario
    assert analysis._flip_group(s, tuple(map(analysis._stabilizer, model.numerators))) == 1
    assert sum(map(len, model.numerators)) << len(s.observables) == analysis.LP_ENTRY_LIMIT
    report = classify(model)
    assert report.cf == F(1, 3)
    assert hashlib.sha256(json.dumps(report.to_dict()).encode()).hexdigest() == (
        "70701134e460ed3214d1116d953762311a3fa199c5c9b26493b0acd0d03a741a"
    )


def test_contextual_fraction_builds_one_fraction():
    # The optimum stays in integers from the simplex through the lift and
    # the certificate; the CF itself is the one Fraction made, counted at
    # the class, whichever module builds it.  On the lp_scale models the LP
    # is refined; the bell-5-2 mix is refined from the full LP.
    models = [*_noisy_lifts_24(), _bell_52_mix()]
    calls = []
    real_new = F.__new__

    def counting_new(cls, *args, **kwargs):
        calls.append(args)
        return real_new(cls, *args, **kwargs)

    with mock.patch.object(F, "__new__", staticmethod(counting_new)):
        for model in models:
            calls.clear()
            cf = analysis.contextual_fraction(model)
            assert len(calls) == 1 and type(cf) is F


def _witness_models(rng, s):
    """Seeded models on ``s``, each followed by a signaling perturbation of it.

    The no-signaling ones are random global distributions over at most three
    assignments, distributions that favour one outcome of one random
    observable (so the first non-uniform marginal is that observable's) and
    the all-even parity lift (every marginal uniform).  The perturbation
    moves ``1/den`` of mass between two sections of one random context, so
    its first failing pair lies anywhere in the overlap order.
    """
    n = len(s.observables)
    everything = list(itertools.product((0, 1), repeat=n))
    bases = []
    for _ in range(20):
        weights = {}
        for _ in range(rng.randint(1, 3)):
            g = tuple(rng.randrange(2) for _ in range(n))
            weights[g] = weights.get(g, 0) + rng.randint(1, 3)
        bases.append(weights)
    for _ in range(3):
        j, bias = rng.randrange(n), rng.randint(2, 4)
        bases.append({g: bias if g[j] else 1 for g in everything})
    out = []
    for weights in bases:
        total = sum(weights.values())
        out.append(from_global_distribution(s, {g: F(w, total) for g, w in weights.items()}))
    out.append(_lift(s, (0,) * s.n_contexts))
    for ns in out[:]:
        rows = [list(row) for row in ns.numerators]
        c = rng.randrange(s.n_contexts)
        source = rng.choice([sec for sec, x in enumerate(rows[c]) if x])
        rows[c][source] -= 1
        rows[c][(source + rng.randrange(1, s.n_sections(c))) % s.n_sections(c)] += 1
        out.append(EmpiricalModel(s, ns.den, tuple(map(tuple, rows))))
    return out


def test_signaling_and_marginal_witnesses_match_the_pinned_digest():
    digest = hashlib.sha256()
    rng = random.Random(4242)
    count = 0
    for s in (bell_scenario(2, 2), bell_scenario(3, 2), bell_scenario(2, 4), cycle_scenario(5)):
        for model in _witness_models(rng, s):
            ok, witness = is_no_signaling(model)
            record = [ok]
            if witness is not None:
                record += [
                    witness.describe(), witness.context_a, witness.context_b,
                    list(witness.overlap), [str(q) for q in witness.marginal_a],
                    [str(q) for q in witness.marginal_b],
                ]
                with pytest.raises(SignalingDetected) as err:
                    make_model(s, fraction_rows(model))
                assert err.value.witness == witness
            maximal, marg = is_maximal_marginal(model)
            record.append(maximal)
            if marg is not None:
                record += [marg.describe(), marg.context, list(marg.subset),
                           [str(q) for q in marg.marginal]]
            digest.update(json.dumps(record).encode() + b"\n")
            count += 1
    assert count == 192
    assert digest.hexdigest() == (
        "813c7fd1da41ee1e0e6f3cfac3c45d9d799f308c8242971398dfb561b46b5c14"
    )


def _support_patterns(rng, s):
    """Seeded support patterns on ``s``, each followed by a copy with one bit toggled.

    Random masks, which mostly fail on an early pair, and the supports of
    random global distributions over at most three assignments, which are
    Boolean no-signaling; toggling one section of one random context moves
    the first failing pair anywhere in the overlap order.
    """
    n = len(s.observables)
    out = [
        PossibilisticModel(s, tuple(rng.randrange(1, 1 << s.n_sections(c)) for c in range(s.n_contexts)))
        for _ in range(10)
    ]
    for _ in range(10):
        weights = {tuple(rng.randrange(2) for _ in range(n)): 1 for _ in range(rng.randint(1, 3))}
        total = len(weights)
        out.append(possibilistic_collapse(
            from_global_distribution(s, {g: F(w, total) for g, w in weights.items()})
        ))
    for pattern in out[:]:
        masks = list(pattern.masks)
        c = rng.randrange(s.n_contexts)
        masks[c] ^= 1 << rng.randrange(s.n_sections(c))
        out.append(PossibilisticModel(s, tuple(masks)))
    return out


def test_boolean_no_signaling_verdicts_and_witnesses_match_the_pinned_digest():
    # Recorded while each pair's support projections were computed bit by
    # bit through ``projection``, before the Boolean check walked the plans
    # of ``is_no_signaling``.
    digest = hashlib.sha256()
    rng = random.Random(2626)
    count = failing = 0
    for s in (bell_scenario(2, 2), bell_scenario(3, 2), bell_scenario(2, 4), cycle_scenario(5)):
        for pattern in _support_patterns(rng, s):
            ok, witness = boolean_no_signaling(pattern)
            record = [list(pattern.masks), ok]
            if witness is not None:
                record += [
                    witness.describe(), witness.context_a, witness.context_b,
                    list(witness.overlap), list(witness.marginal_a), list(witness.marginal_b),
                ]
                failing += 1
            digest.update(json.dumps(record).encode() + b"\n")
            count += 1
    assert (count, failing) == (160, 110)
    assert digest.hexdigest() == (
        "9ae92bee57aa682522c938ee8275f13b914a05eee28d19e7b039c377baa84108"
    )


def _family_outcome(build, *args):
    """``model_to_dict`` of a family point, or the name and message of its error."""
    try:
        return model_to_dict(build(*args))
    except OutOfRange as err:
        return ["OutOfRange", str(err)]


def _ns_models_32(rng):
    """Seeded no-signaling (3,2,2) models: global distributions mixed with a parity lift."""
    s = bell_scenario(3, 2)
    for _ in range(12):
        weights = {}
        for _ in range(rng.randint(1, 3)):
            g = tuple(rng.randrange(2) for _ in range(6))
            weights[g] = weights.get(g, 0) + rng.randint(1, 4)
        total = sum(weights.values())
        local = from_global_distribution(s, {g: F(w, total) for g, w in weights.items()})
        lift = _lift(s, tuple(rng.randrange(2) for _ in range(8)))
        lam = F(rng.randint(0, 6), 6)
        yield mix([lift, local], [lam, 1 - lam])


def test_three_and_twentysix_parameter_points_match_the_pinned_digest():
    # Recorded while both families evaluated their tables entry by entry
    # as Fractions, the 26-parameter one from 38 hand-derived expressions.
    digest = hashlib.sha256()
    rng = random.Random(326)
    records = []
    for _ in range(60):
        # Sixteenths near the valid region, p1 in [p2 - 1, p2 + 4] and p3 in
        # [-1, p1], moved to a random denominator.
        d, p2 = rng.choice((5, 16, 24, 40)), rng.randint(0, 3)
        p1 = p2 + rng.randint(-1, 4)
        point = [F(k * d // 16, d) for k in (p1, p2, rng.randint(-1, p1))]
        records.append(_family_outcome(three_param_family, *point))
    for model in _ns_models_32(rng):
        params = list(twentysix_params_from_model(model))
        records.append(_family_outcome(twentysix_param_family, params))
        for _ in range(3):
            k = rng.randrange(26)
            params[k] += F(rng.choice((-1, 1)), rng.choice((16, 48)))
            records.append(_family_outcome(twentysix_param_family, params))
    for _ in range(20):
        point = [F(rng.randint(0, 6), rng.choice((16, 32, 48))) for _ in range(26)]
        records.append(_family_outcome(twentysix_param_family, point))
    for record in records:
        digest.update(json.dumps(record).encode() + b"\n")
    valid = sum(1 for record in records if isinstance(record, dict))
    assert (len(records), valid) == (128, 48)
    assert digest.hexdigest() == (
        "59f68314de9aed8cd4d814ca80cfc817965a0a982f9dd21fc66e1b7643d7d478"
    )


def test_secret_share_transcripts_match_the_pinned_digest():
    digest = hashlib.sha256()
    systems = (
        (bell_scenario(3, 2), (0, 1, 1, 1, 1, 1, 1, 1), (1, 0, 1, 1, 0, 1, 0, 1)),
        (bell_scenario(2, 2), (0, 0, 0, 1), (0, 1, 1)),
    )
    for s, parities, secret in systems:
        for seed in (0, 1, 7):
            result = secret_share_simulate(parity_system(s, parities), secret, 48, F(1, 5), seed)
            digest.update(result.transcript().encode())
    assert digest.hexdigest() == (
        "5bc049f73a62cc72f66d6b5acdf1483bdd9204ef0960098d0f4aa358fac3086d"
    )
