"""Span tracing of amcc's public functions, installed from outside the package.

Each traced function is replaced by a wrapper at every module attribute that
is bound to it (``amcc.analysis.maximize`` and ``amcc.ratlp.maximize`` are the
same function object, so both names get the same wrapper).  The package is
not modified on disk; the wrappers exist only in the benchmark process.

A span is ``(name, start, end, parent, item, error)``.  Spans stay in memory
and are written out when the run ends.  Self time is a span's duration minus
the durations of its direct children; calls are strictly nested in one
thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from fractions import Fraction

#: (module, function) pairs that get a span.  ``empirical.marginal`` is the
#: hot inner helper of every NS and marginal check and stays unwrapped: a
#: wrapper there would cost more than the work it measures.
TRACED = (
    ("scenario", "make_scenario"),
    ("empirical", "make_model"),
    ("empirical", "is_no_signaling"),
    ("empirical", "is_maximal_marginal"),
    ("empirical", "lift_uniform"),
    ("empirical", "mix"),
    ("empirical", "model_from_dict"),
    ("empirical", "model_to_dict"),
    ("analysis", "restriction_table"),
    ("analysis", "incidence_matrix"),
    ("analysis", "contextual_fraction"),
    ("analysis", "classify"),
    ("analysis", "is_strongly_contextual"),
    ("analysis", "avn_certificate"),
    ("ratlp", "maximize"),
    ("ratlp", "solve_feasibility"),
    ("construct", "eight_param_family"),
    ("construct", "scan_eight_param"),
    ("construct", "enumerate_parity"),
    ("construct", "csp_enumerate_extension"),
    ("construct", "parity_consistent"),
    ("applications", "secret_share_simulate"),
    ("applications", "min_entropy"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)

#: Functions whose inclusive time per item is reported (scan8: per 8b point).
PER_ITEM = ("construct.eight_param_family", "empirical.is_no_signaling", "ratlp.maximize")

#: Functions whose arguments or results feed the LP-size and CF counters.
OBSERVED = ("ratlp.maximize", "analysis.contextual_fraction", "analysis.classify")

#: Functions whose set-up self time is reported on its own.
SETUP_SPANS = ("scenario.make_scenario", "analysis.restriction_table", "analysis.incidence_matrix")


class MissingSpan(RuntimeError):
    """A traced function does not exist under its module."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = "setup"
        self.recording = True
        self.sites: dict[str, list[str]] = {}
        # Extra counters read from arguments and results at the boundaries.
        self.lp_rows = self.lp_cols = self.lp_nonzeros = 0
        self.cf_results = self.cf_ones = 0
        self._nonzeros: dict[int, tuple] = {}

    @contextlib.contextmanager
    def paused(self):
        """Stop recording, e.g. while the benchmark checks a result itself."""
        previous, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = previous

    def reset_counters(self):
        self.lp_rows = self.lp_cols = self.lp_nonzeros = 0
        self.cf_results = self.cf_ones = 0

    def _observe(self, name, args, result):
        if name == "ratlp.maximize":
            lp = args[0]
            self.lp_rows += len(lp.a_eq) + len(lp.a_le)
            self.lp_cols += len(lp.objective)
            self.lp_nonzeros += self._count_nonzeros(lp.a_eq) + self._count_nonzeros(lp.a_le)
        else:  # contextual_fraction returns the CF, classify a report
            cf = result if isinstance(result, Fraction) else result.cf
            self.cf_results += 1
            self.cf_ones += cf == 1

    def _count_nonzeros(self, matrix) -> int:
        # The incidence matrix is a cached tuple shared by every LP of a
        # scenario; count it once and keep it alive so its id stays unique.
        hit = self._nonzeros.get(id(matrix))
        if hit is None or hit[0] is not matrix:
            hit = (matrix, sum(1 for row in matrix for a in row if a != 0))
            self._nonzeros[id(matrix)] = hit
        return hit[1]

    def wrap(self, name, fn):
        spans, stack, observe = self.spans, self._stack, self._observe
        observed = name in OBSERVED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.item, False]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observed:
                observe(name, args, result)
            return result

        return traced

    def install(self):
        """Rebind every amcc module attribute that names a traced function."""
        originals = {}
        for mod_short, fn_name in TRACED:
            try:
                home = importlib.import_module(f"amcc.{mod_short}")
            except ModuleNotFoundError:
                home = None
            originals[f"{mod_short}.{fn_name}"] = getattr(home, fn_name, None)
            if originals[f"{mod_short}.{fn_name}"] is None:
                raise MissingSpan(f"amcc.{mod_short}.{fn_name} does not exist")
        modules = [
            (mod_name, mod)
            for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and (mod_name == "amcc" or mod_name.startswith("amcc."))
        ]
        for name, original in originals.items():
            wrapper = self.wrap(name, original)
            sites = []
            for mod_name, mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        sites.append(f"{mod_name}.{attr}")
            self.sites[name] = sites

    def self_times(self):
        """Per-span self time in seconds, indexed like ``spans``."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, item, error) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "item": item, "error": error}
                    )
                )
                handle.write("\n")


def layer_metrics(
    tracer: Tracer, passes: int, items_per_pass: int, expected, scale: float = 1.0
) -> tuple[dict, list]:
    """Per-layer metrics per pass of the timed section, plus missing spans.

    Spans whose item is "setup" form the set-up metrics; every other span
    belongs to a timed pass.  Times are multiplied by ``scale``, the run's
    machine-speed factor.  A function in ``expected`` with no timed call is
    returned as missing rather than reported as 0 ms.
    """
    ms = 1000 * scale
    own = tracer.self_times()
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    errors = dict.fromkeys(SPAN_NAMES, 0)
    inclusive = dict.fromkeys(PER_ITEM, 0.0)
    setup_s = dict.fromkeys(SETUP_SPANS, 0.0)
    for span, own_s in zip(tracer.spans, own):
        name = span[0]
        if span[4] == "setup":
            if name in setup_s:
                setup_s[name] += own_s
            continue
        calls[name] += 1
        self_s[name] += own_s
        errors[name] += span[5]
        if name in inclusive:
            inclusive[name] += span[2] - span[1]
    missing = sorted(name for name in expected if calls[name] == 0)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.self_ms"] = ms * self_s[name] / passes
        out[f"{name}.errors"] = errors[name] / passes
    for name in PER_ITEM:
        out[f"per_item.{name}.ms"] = ms * inclusive[name] / (passes * items_per_pass)
    for name in SETUP_SPANS:
        out[f"setup.{name}.self_ms"] = ms * setup_s[name]
    out["ratlp.maximize.rows"] = tracer.lp_rows / passes
    out["ratlp.maximize.cols"] = tracer.lp_cols / passes
    out["ratlp.maximize.nonzeros"] = tracer.lp_nonzeros / passes
    out["analysis.cf_one_share"] = tracer.cf_ones / tracer.cf_results if tracer.cf_results else 0.0
    return out, missing
