"""Byte-level pins on the JSON the library and the CLI emit.

Each digest is the SHA-256 of output recorded before model rows were stored
as integer numerators over one denominator; any change to a verdict, a
rational's spelling or the LP's reported noncontextual part moves it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

from amcc import cli
from amcc.analysis import classify
from amcc.catalog import asymmetric_scc_model, ghz_model, pr_box, three_way_box
from amcc.construct import eight_param_family, parity_system, parity_to_possibilistic
from amcc.empirical import PossibilisticModel, lift_uniform, mix, model_to_dict
from amcc.scenario import bell_scenario

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
    s = bell_scenario(2, 4)
    odd = _lift(s, (1,) + (0,) * (s.n_contexts - 1))
    noise = lift_uniform(PossibilisticModel(s, (0xF,) * s.n_contexts))
    for lam in (F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(3, 4)):
        yield mix([odd, noise], [1 - lam, lam])


def test_model_and_classify_json_match_the_pinned_digest():
    digest = hashlib.sha256()
    count = 0
    for model in _models():
        digest.update(json.dumps(model_to_dict(model)).encode() + b"\n")
        digest.update(json.dumps(classify(model).to_dict()).encode() + b"\n")
        count += 1
    assert count == 257
    assert digest.hexdigest() == (
        "f9845803ab0d296ed1e065e6add845aacd89fb9bf35edc1d77fabf7c25392402"
    )


def test_parity_enumeration_stream_matches_the_pinned_digest(capsys):
    argv = ["enumerate", "parity", "--scenario", "bell-3-2-2", "--stream", "--jobs", "1"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 257
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2c1fc38a289dfc98b4524b84ad92c2a129617a099f7fe55bd1b687dad68a507a"
    )
