"""Smoke check of the benchmark harness; finishes in a few seconds.

    python3 perfbench/check.py

Runs one pass of every workload at minimal size on two seeds, untraced and
traced, and checks that:

* every pass is correct, and the seed changes the inputs;
* the correctness gate reports a failure when it is handed a wrong
  expected verdict;
* tracing rebinds every name a caller resolves, reports a traced function
  that was never called as missing, and names exactly the per-layer
  metrics of BENCHMARK.json;
* run.py prints the result line with the end-to-end metrics of
  BENCHMARK.json, and exits non-zero without a result where there are no
  amcc sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKDIR = os.path.join(HERE, "_work", "check")


def one_pass(workload):
    """(failure messages, verdicts) of one pass through the gate."""
    failures, verdicts = [], []
    for request in workload.requests:
        try:
            verdicts.append(workloads.check_result(request, request.call(), None))
        except workloads.GateFailure as exc:
            failures.append(str(exc))
            verdicts.append(getattr(exc, "verdict", None))
    failures += [f"pass gate: {i}" for i in workload.pass_check(verdicts)]
    return failures, verdicts


def build(name, seed):
    cls = workloads.WORKLOADS[name]
    kwargs = {"workdir": os.path.join(WORKDIR, f"{name}-{seed}")} if cls is workloads.CliMix else {}
    return cls(seed, smoke=True, **kwargs)


def check_workloads():
    for name in workloads.WORKLOADS:
        seen = []
        for seed in (1, 2):
            failures, verdicts = one_pass(build(name, seed))
            assert not failures, (name, seed, failures)
            seen.append(verdicts)
        if name != "enumerate":  # enumerate's seed reorders the scenario, not the counts
            assert seen[0] != seen[1], f"{name}: seeds 1 and 2 gave the same verdicts"


def check_gate_catches_wrong_expectations():
    wrong = build("enumerate", 1)
    wrong.expected_parity = (16, 8, 7)
    failures, _ = one_pass(wrong)
    assert any("parity counts" in f for f in failures), failures

    wrong = build("cli_mix", 1)
    valid_document = os.path.join(WORKDIR, "cli_mix-1", "model0.json")
    wrong.requests.append(wrong._expect_rejection(["cf", valid_document]))
    failures, _ = one_pass(wrong)
    assert len(failures) == 1 and "expected 2" in failures[0], failures


def check_tracing(benchmark):
    tracer = tracing.Tracer()
    tracer.install()
    for site in ("amcc.analysis.maximize", "amcc.analysis.is_no_signaling",
                 "amcc.empirical.is_no_signaling"):
        assert any(site in sites for sites in tracer.sites.values()), site
    assert {"amcc.empirical.make_model", "amcc.construct.make_model",
            "amcc.catalog.make_model"} <= set(tracer.sites["empirical.make_model"])
    declared = {m["name"] for m in benchmark["per_layer"]}
    for name in workloads.WORKLOADS:
        workload = build(name, 3)
        tracer.item = "p0"
        failures, _ = one_pass(workload)
        assert not failures, (name, failures)
        layers, missing = tracing.layer_metrics(
            tracer, 1, max(workload.items_per_pass, 1),
            workload.expected_spans | {"ratlp.solve_feasibility"},
        )
        assert missing == ["ratlp.solve_feasibility"], (name, missing)
        reported = set(layers) | {"cli.main.stdout_bytes", "trace.overhead_s", "trace.overhead_frac"}
        assert reported == declared, reported ^ declared
        for span in tracer.spans:
            assert span[3] < 0 or tracer.spans[span[3]][1] <= span[1], "child starts before parent"
        tracer.spans.clear()
        tracer.item = "setup"


def check_run_py(benchmark):
    declared = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "4",
             "--seconds", "0.5", "--trace", "0", "--smoke"],
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared

    bare = os.path.join(WORKDIR, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=bare,
    )
    assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    assert {w["name"] for w in benchmark["workloads"]} == set(workloads.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    try:
        check_workloads()
        check_gate_catches_wrong_expectations()
        check_run_py(benchmark)
        check_tracing(benchmark)  # last: it rebinds amcc's functions in this process
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print("perfbench check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
