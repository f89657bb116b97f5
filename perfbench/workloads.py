"""The four benchmark workloads: seeded inputs, requests, and correctness gates.

Each workload builds a fixed *pass* of requests from its seed at set-up.  A
request is one call into amcc's public API; the client is a closed loop that
starts the next request when the previous one returns.  The run repeats the
pass, so every pass does the same work.

Every request's result is reduced to a verdict record (CF values, verdict
flags, counts, exit codes; never raw stdout bytes).  On the first pass each
verdict is also checked against an independent expectation; later passes must
reproduce the first pass's verdicts exactly.  A failed check raises
``GateFailure`` and counts the request as failed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from amcc import analysis, catalog, cli, construct, empirical, scenario

F = Fraction
EIGHT_PARAM_VALUES = (F(0), F(1, 16), F(1, 8), F(3, 16))
NOISE_LEVELS = (F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(3, 4))


class GateFailure(AssertionError):
    """A result disagreed with its independent expectation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


@dataclass
class Request:
    label: str
    items: int
    call: Callable[[], Any]
    #: result -> verdict record (JSON-able); cheap, run on every pass.
    verdict: Callable[[Any], Any]
    #: (result, verdict) -> None, raises GateFailure; run on the first pass only.
    verify: Callable[[Any, Any], None]


def fmt(q) -> str:
    return empirical.format_rational(q)


def parity_solvable(s, parities) -> bool:
    """Independent oracle: some global assignment satisfies every context's XOR."""
    index = {x: i for i, x in enumerate(s.observables)}
    masks = [sum(1 << index[x] for x in ctx) for ctx in s.contexts]
    return any(
        all(bin(g & mask).count("1") % 2 == p for mask, p in zip(masks, parities))
        for g in range(1 << len(s.observables))
    )


def parity_lift(s, parities):
    ps = construct.parity_system(s, parities)
    return empirical.lift_uniform(construct.parity_to_possibilistic(ps))


def uniform_model(s):
    return empirical.make_model(
        s, [[F(1, s.n_sections(c))] * s.n_sections(c) for c in range(s.n_contexts)]
    )


class Workload:
    name = ""
    #: Traced functions this workload must call in its timed section.
    expected_spans: frozenset = frozenset()

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.stdout_bytes = 0
        self.requests: list[Request] = []

    @property
    def items_per_pass(self) -> int:
        return sum(r.items for r in self.requests)

    def pass_check(self, verdicts: list) -> list[int]:
        """Indices of requests that break a gate spanning several requests.

        ``verdicts`` holds None for a request that raised or has no verdict.
        """
        return []


class Scan8(Workload):
    """CF over the symmetric eight-parameter family near the 8b slice.

    One request is one ``scan_eight_param`` call: p1 = 1/4, two free
    parameters over a three-value grid (9 points), the other five pinned.
    The pass makes two calls for each pairing of a three-value subset of
    {0, 1/16, 1/8, 3/16} with a count of zero to three pinned zeros, so every
    seed has the same mix of points with few zeros (those pivot) and many
    (those are strongly contextual and resolved by presolve).  The seed
    picks which parameters are free, where the pinned zeros go, the nonzero
    values of the other pinned parameters and the order of the calls.
    """

    name = "scan8"
    expected_spans = frozenset({
        "construct.scan_eight_param", "construct.eight_param_family",
        "scenario.make_scenario", "empirical.make_model", "empirical.is_no_signaling",
        "analysis.contextual_fraction", "analysis.incidence_matrix", "ratlp.maximize",
    })

    def __init__(self, seed, smoke=False):
        super().__init__(seed)
        s = scenario.bell_scenario(3, 2)
        analysis.incidence_matrix(s)
        analysis.global_masks(s)
        calls = list(itertools.product(itertools.combinations(EIGHT_PARAM_VALUES, 3), range(4))) * 2
        n_free = 2
        if smoke:
            calls = [(EIGHT_PARAM_VALUES[:2], 1)]
        self.rng.shuffle(calls)
        for grid, n_zero in calls:
            positions = list(range(2, 9))
            self.rng.shuffle(positions)
            fixed = {1: F(1, 4)}
            for k, p in enumerate(positions[n_free:]):
                fixed[p] = F(0) if k < n_zero else self.rng.choice(EIGHT_PARAM_VALUES[1:])
            self.requests.append(Request(
                label="scan_eight_param",
                items=len(grid) ** n_free,
                call=lambda grid=grid, fixed=fixed: construct.scan_eight_param(grid, fixed),
                verdict=lambda report: [
                    [[fmt(p) for p in pt.params], fmt(pt.cf)] for pt in report.points
                ],
                verify=self._verify,
            ))

    @staticmethod
    def _verify(report, verdict):
        for pt in report.points:
            model = construct.eight_param_family(pt.params)
            strong, _ = analysis.is_strongly_contextual(model)
            require(0 <= pt.cf <= 1, f"CF {fmt(pt.cf)} out of [0, 1] at {pt.params}")
            require(
                (pt.cf == 1) == strong,
                f"CF {fmt(pt.cf)} but support scan says strongly_contextual={strong} "
                f"at {[fmt(p) for p in pt.params]}",
            )


class Enumerate(Workload):
    """The parity enumeration and the CSP extension scan.

    Every LP here is strongly contextual and resolved by presolve, so the
    time goes to the solution check, NS validation and classify's support
    scan, certificate and marginal checks.  The seed permutes the observable
    and context order of the (3,2,2) scenario, which must not move the
    counts 256/16/240; the CSP preset is fixed (65 536 candidates, 2 401
    pass).  An item is one parity vector; the CSP scan rides in the same pass.
    """

    name = "enumerate"
    expected_spans = frozenset({
        "construct.enumerate_parity", "construct.csp_enumerate_extension",
        "empirical.lift_uniform", "empirical.make_model", "empirical.is_no_signaling",
        "empirical.is_maximal_marginal", "analysis.classify",
        "analysis.is_strongly_contextual", "analysis.avn_certificate",
        "analysis.incidence_matrix", "analysis.restriction_table", "ratlp.maximize",
    })

    def __init__(self, seed, smoke=False):
        super().__init__(seed)
        parties = 2 if smoke else 3
        base = scenario.bell_scenario(parties, 2)
        observables = list(base.observables)
        contexts = list(base.contexts)
        self.rng.shuffle(observables)
        self.rng.shuffle(contexts)
        s = scenario.make_scenario(observables, contexts)
        analysis.incidence_matrix(s)
        analysis.global_masks(s)
        self.scenario = s
        # Counts (vectors, consistent, AMCC); the uniform lift of every
        # GF(2)-inconsistent system is AMCC.
        self.expected_parity = (16, 8, 8) if smoke else (256, 16, 240)
        self.expected_csp = (65536, 2401)
        csp_base, extendable = construct.csp_extension_preset("eq40")
        analysis.global_masks(csp_base.scenario)
        self.requests = [
            Request(
                label="enumerate_parity",
                items=1 << s.n_contexts,
                call=lambda: construct.enumerate_parity(s, jobs=1),
                verdict=lambda r: [
                    [r.total, r.consistent_count, r.amcc_count],
                    "".join(
                        "c" if v.consistent else ("A" if v.amcc else "n") + fmt(v.cf)
                        for v in r.verdicts
                    ),
                ],
                verify=self._verify_parity,
            ),
            Request(
                label="csp_enumerate_extension",
                items=0,
                call=lambda: construct.csp_enumerate_extension(csp_base, extendable, jobs=1),
                verdict=lambda r: [r.candidates, r.passing_count],
                verify=lambda r, v: self._verify_csp(r, v, csp_base.scenario),
            ),
        ]

    def _verify_parity(self, report, verdict):
        counts = tuple(verdict[0])
        require(counts == self.expected_parity, f"parity counts {counts} != {self.expected_parity}")
        for v in report.verdicts:
            solvable = parity_solvable(self.scenario, v.parities)
            require(v.consistent == solvable, f"parities {v.parities}: consistent={v.consistent}")
            if not solvable:
                require(v.cf == 1 and v.amcc, f"parities {v.parities}: cf={v.cf} amcc={v.amcc}")

    def _verify_csp(self, report, verdict, s):
        counts = tuple(verdict)
        require(counts == self.expected_csp, f"CSP counts {counts} != {self.expected_csp}")
        for cand in (report.passing[0], report.passing[-1]):
            model = construct.candidate_model(s, cand.support_masks)
            ok, _ = construct.boolean_no_signaling(model)
            strong, _ = analysis.is_strongly_contextual(model)
            require(ok and strong, f"CSP candidate {cand.index} is not a passing candidate")


class LpScale(Workload):
    """CF of noisy parity lifts on bell-2-4: a 64-row, 256-column LP.

    The model is the uniform lift of the parity system with a single odd
    context, mixed with the uniform model at weight lambda; the pass solves
    every noise level once, in an order the seed draws.  No model has
    CF = 1, so every LP pivots.  The parity vector is fixed: relabelling its
    outcomes or reordering contexts leaves the CF unchanged but moves one
    LP's time by up to 25%, because Bland's rule follows column order, and
    with five LPs per pass that made the median differ by 22% between seeds.
    """

    name = "lp_scale"
    expected_spans = frozenset({
        "analysis.contextual_fraction", "analysis.incidence_matrix",
        "empirical.is_no_signaling", "ratlp.maximize",
    })

    def __init__(self, seed, smoke=False):
        super().__init__(seed)
        s = scenario.bell_scenario(2, 2 if smoke else 4)
        analysis.incidence_matrix(s)
        parities = (1,) + (0,) * (s.n_contexts - 1)
        require(not parity_solvable(s, parities), f"parities {parities} are consistent")
        lift = parity_lift(s, parities)
        uniform = uniform_model(s)
        levels = list(NOISE_LEVELS)
        self.rng.shuffle(levels)
        for lam in levels:
            model = empirical.mix([lift, uniform], [1 - lam, lam])
            self.requests.append(Request(
                label="contextual_fraction",
                items=1,
                call=lambda model=model: analysis.contextual_fraction(model),
                verdict=lambda cf, lam=lam: [fmt(lam), fmt(cf)],
                verify=lambda cf, v, lam=lam: require(
                    0 <= cf <= 1 - lam, f"CF {fmt(cf)} outside [0, 1 - {fmt(lam)}]"
                ),
            ))

    def pass_check(self, verdicts):
        bad = []
        points = sorted(
            (F(v[0]), F(v[1]), i) for i, v in enumerate(verdicts) if v is not None
        )
        for (_, cf_lo, _), (_, cf_hi, i) in zip(points, points[1:]):
            if cf_hi > cf_lo:
                bad.append(i)
        return bad


class CliMix(Workload):
    """A seeded stream of in-process ``amcc.cli.main`` requests.

    Set-up writes model JSON files: catalog models, parity lifts, points of
    the 3-, 8- and 26-parameter families and noisy mixtures, plus malformed
    and signaling documents that must end in exit code 2.  Each valid
    document is used once per pass by ``classify`` and ``cf`` and twice by
    ``entropy``; ``parity --classify`` and ``secret-share`` take seeded
    parity vectors.  Every request re-parses its JSON, so parsing and
    formatting cost shows next to the LP cost.  More than half of the
    requests solve no LP, so ``item_p50_ms`` is the cost of parsing,
    validation and reports and ``item_p90_ms`` that of pivoting LPs.
    """

    name = "cli_mix"
    expected_spans = frozenset({
        "cli.main", "empirical.model_from_dict", "scenario.make_scenario",
        "empirical.make_model", "empirical.is_no_signaling", "empirical.is_maximal_marginal",
        "empirical.lift_uniform", "analysis.classify", "analysis.contextual_fraction",
        "analysis.is_strongly_contextual", "analysis.avn_certificate", "ratlp.maximize",
        "construct.parity_consistent", "applications.min_entropy",
        "applications.secret_share_simulate",
    })

    def __init__(self, seed, smoke=False, workdir="."):
        super().__init__(seed)
        rng = self.rng
        s322, s222 = scenario.bell_scenario(3, 2), scenario.bell_scenario(2, 2)
        for s in (s322, s222):
            analysis.incidence_matrix(s)
            analysis.global_masks(s)

        docs = []  # (model, expected cf or None, cf upper bound)
        bits = [rng.randrange(2) for _ in range(3)]
        docs.append((catalog.pr_box(*bits), F(1), F(1)))
        docs += [(catalog.ghz_model(), F(1), F(1)), (catalog.asymmetric_scc_model(), F(1), F(1))]
        if not smoke:
            docs += [(catalog.pr_box(*[1 - b for b in bits]), F(1), F(1)),
                     (catalog.three_way_box(), F(1), F(1))]
            for _ in range(3):
                docs.append((parity_lift(s322, self._parity_vector(s322, False)), F(1), F(1)))
            docs.append((parity_lift(s222, self._parity_vector(s222, False)), F(1), F(1)))
            # The models whose CF LP pivots set the latency tail.  Their pivot
            # paths follow their exact entries and move with any relabelling,
            # so they are the same for every seed: the lift of a consistent
            # system, four 8-parameter points, and mixtures of the
            # one-odd-context parity lift.
            docs.append((parity_lift(s322, (0,) * 8), None, F(1)))
            odd = parity_lift(s322, (1,) + (0,) * 7)
            eight_param_points = (
                (1, 2, 3, 1, 2, 3, 2), (3, 1, 2, 2, 1, 3, 1),
                (0, 1, 2, 3, 1, 2, 3), (2, 3, 0, 1, 3, 2, 1),
            )  # indices into EIGHT_PARAM_VALUES for p2..p8
            for values in eight_param_points:
                params = [F(1, 4)] + [EIGHT_PARAM_VALUES[v] for v in values]
                docs.append((construct.eight_param_family(params), None, F(1)))
            docs += [(m, None, F(1)) for m in self._three_param_points(2)]
            for source, lam in ((catalog.ghz_model(), F(1, 4)), (odd, F(1, 2))):
                mixed = empirical.mix([source, uniform_model(s322)], [1 - lam, lam])
                params = construct.twentysix_params_from_model(mixed)
                docs.append((construct.twentysix_param_family(params), None, 1 - lam))
            for lam in NOISE_LEVELS:
                docs.append((empirical.mix([odd, uniform_model(s322)], [1 - lam, lam]), None, 1 - lam))

        os.makedirs(workdir, exist_ok=True)
        valid = []
        for k, (model, cf, cf_max) in enumerate(docs):
            path = os.path.join(workdir, f"model{k}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(empirical.model_to_dict(model), handle)
            valid.append((path, model, cf, cf_max))
        bad = []
        for k, text in enumerate(self._bad_documents(docs[0][0])):
            path = os.path.join(workdir, f"bad{k}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            bad.append(path)

        requests = []
        for path, model, cf, cf_max in valid:
            requests.append(self._classify(path, cf, cf_max))
            requests.append(self._cf(path, cf, cf_max))
            requests += [self._entropy(path, model), self._entropy(path, model)]
        for path in bad:
            requests.append(self._expect_rejection(["classify", path]))
            requests.append(self._expect_rejection(["cf", path]))
        for k in range(2 if smoke else 15):
            s, token = (s222, "bell-2-2-2") if k % 5 == 4 else (s322, "bell-3-2-2")
            requests.append(self._parity(s, token, self._parity_vector(s, k % 3 == 2)))
        for k in range(2 if smoke else 15):
            vec = self._parity_vector(s322, False)
            requests.append(self._secret_share(vec, rounds=rng.randrange(32, 97)))
        rng.shuffle(requests)
        self.requests = requests

    # --- document and input generation ---------------------------------

    def _parity_vector(self, s, solvable):
        while True:
            vec = tuple(self.rng.randrange(2) for _ in range(s.n_contexts))
            if parity_solvable(s, vec) == solvable:
                return vec

    def _three_param_points(self, count):
        points = []
        while len(points) < count:
            p1, p2, p3 = (F(self.rng.randrange(0, 16), 32) for _ in range(3))
            if p2 < p1 < p2 / 2 + F(1, 4) and 0 < p3 < min(p1, F(1, 2) - p1, 2 * p1 - p2):
                points.append(construct.three_param_family(p1, p2, p3))
        return points

    @staticmethod
    def _bad_documents(model):
        good = empirical.model_to_dict(model)
        keys = list(good["tables"])
        unnormalised = json.loads(json.dumps(good))
        unnormalised["tables"][keys[0]][0] = "1"
        signaling = json.loads(json.dumps(good))
        signaling["tables"][keys[0]] = ["1"] + ["0"] * (len(good["tables"][keys[0]]) - 1)
        missing = json.loads(json.dumps(good))
        del missing["tables"][keys[-1]]
        return ['{"scenario": ', json.dumps(unnormalised), json.dumps(signaling), json.dumps(missing)]

    # --- requests ----------------------------------------------------------

    def _run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
        self.stdout_bytes += len(text.encode())
        return code, text

    def _request(self, label, argv, verdict, verify, expected_code=0):
        def checked_verdict(result):
            code, text = result
            require(code == expected_code, f"{argv}: exit {code}, expected {expected_code}")
            return [label, code] + (verdict(text) if code == 0 else [])

        return Request(
            label=label, items=1, call=lambda: self._run_cli(argv),
            verdict=checked_verdict, verify=verify,
        )

    def _classify(self, path, cf, cf_max):
        def verdict(text):
            r = json.loads(text)
            return [r["cf"], r["strongly_contextual"], r["maximal_marginal"], r["amcc"]]

        def verify(result, v):
            got_cf, strong, maxmarg, amcc = F(v[2]), v[3], v[4], v[5]
            require(strong == (got_cf == 1), f"classify {path}: cf {v[2]} vs strong {strong}")
            require(amcc == (strong and maxmarg), f"classify {path}: amcc {amcc}")
            require(0 <= got_cf <= cf_max, f"classify {path}: cf {v[2]} above {cf_max}")
            require(cf is None or got_cf == cf, f"classify {path}: cf {v[2]} != {cf}")

        return self._request("classify", ["classify", path], verdict, verify)

    def _cf(self, path, cf, cf_max):
        def verify(result, v):
            got = F(v[2])
            require(0 <= got <= cf_max and (cf is None or got == cf), f"cf {path}: {v[2]}")

        return self._request("cf", ["cf", path], lambda text: [text.strip()], verify)

    def _entropy(self, path, model):
        c = self.rng.randrange(model.scenario.n_contexts)
        context = model.scenario.contexts[c]
        bits = "".join(map(str, scenario.context_setting_bits(model.scenario, c)))
        subset = [x for x in context if self.rng.randrange(2)] or [context[0]]

        def verdict(text):
            r = json.loads(text)
            return [r["guess_probability"], r["subset_size"]]

        def verify(result, v):
            guess, size = F(v[2]), v[3]
            require(size == len(subset), f"entropy {path}: subset size {size}")
            require(F(1, 1 << size) <= guess <= 1, f"entropy {path}: guess {v[2]}")

        argv = ["entropy", path, "--context", bits, "--subset", ",".join(subset)]
        return self._request("entropy", argv, verdict, verify)

    def _expect_rejection(self, argv):
        return self._request(argv[0], argv, lambda text: [], lambda r, v: None, expected_code=2)

    def _parity(self, s, token, vec):
        solvable = parity_solvable(s, vec)

        def verdict(text):
            r = json.loads(text)
            return [r["consistent"], r["classification"]["cf"], r["classification"]["amcc"]]

        def verify(result, v):
            require(v[2] == solvable, f"parity {vec}: consistent={v[2]}")
            require((v[3] == "1") == (not solvable), f"parity {vec}: cf {v[3]}")

        argv = ["parity", "--scenario", token, "--parities", "".join(map(str, vec)), "--classify"]
        return self._request("parity", argv, verdict, verify)

    def _secret_share(self, vec, rounds):
        secret = f"{self.rng.randrange(1 << 16):04x}"
        argv = [
            "secret-share", "--scenario", "bell-3-2-2", "--parities", "".join(map(str, vec)),
            "--rounds", str(rounds), "--test-fraction", "1/4",
            "--seed", str(self.rng.randrange(1 << 30)), "--secret", secret,
        ]

        def verdict(text):
            result = json.loads(text.strip().splitlines()[-1])["result"]
            return [result["success"], result["aborted"], len(result["secret_bits_sent"])]

        def verify(result, v):
            require(v[2] is True and v[3] is False, f"secret-share {argv}: {v}")

        return self._request("secret-share", argv, verdict, verify)


WORKLOADS = {w.name: w for w in (Scan8, Enumerate, LpScale, CliMix)}


def check_result(request: Request, result, reference):
    """The verdict of one result.

    With no reference (first pass) the verdict is verified independently;
    otherwise it must equal the first pass's verdict for the same request.
    """
    verdict = request.verdict(result)
    if reference is None:
        try:
            request.verify(result, verdict)
        except GateFailure as exc:
            exc.verdict = verdict
            raise
    else:
        require(verdict == reference, f"{request.label}: verdict {verdict} != first pass {reference}")
    return verdict
