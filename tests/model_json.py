"""Print one named model of the CI checks as model JSON, one line on stdout.

    python tests/model_json.py bell-4-2-mix | amcc cf

Every name is a Bell token and a kind:

* ``bell-N-M-odd-noise``: the uniform lift of the parity system with only
  context 0 odd, mixed half and half with uniform noise;
* ``bell-N-M-mix``: that lift 1/2, uniform noise 1/4, and the all-0 and
  all-1 deterministic models 1/7 and 3/28, a mix no outcome flip fixes.

A script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction as F

from amcc.construct import parity_system, parity_to_possibilistic
from amcc.empirical import PossibilisticModel, deterministic_model, lift_uniform, mix, model_to_dict
from amcc.scenario import parse_bell_token


def model(name: str):
    match = re.fullmatch(r"(bell-\d+-\d+)-(odd-noise|mix)", name)
    if match is None:
        raise SystemExit(f"unknown model {name!r}: expected bell-N-M-odd-noise or bell-N-M-mix")
    token, kind = match.groups()
    s = parse_bell_token(token)
    odd = lift_uniform(parity_to_possibilistic(parity_system(s, (1,) + (0,) * (s.n_contexts - 1))))
    full = (1 << (1 << len(s.contexts[0]))) - 1  # every section of a context
    noise = lift_uniform(PossibilisticModel(s, (full,) * s.n_contexts))
    if kind == "odd-noise":
        return mix([odd, noise], [F(1, 2), F(1, 2)])
    zeros, ones = (deterministic_model(s, (v,) * len(s.observables)) for v in (0, 1))
    return mix([odd, noise, zeros, ones], [F(1, 2), F(1, 4), F(1, 7), F(3, 28)])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    print(json.dumps(model_to_dict(model(sys.argv[1]))))
