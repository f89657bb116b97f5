"""amcc benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload scan8 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload runs in a fresh child process
(``worker.py``) with ``jobs=1``: one closed-loop client.  ``--trace 0``
reports the end-to-end metrics; set-up time is the median over several fresh
processes.  ``--trace 1`` runs the workload untraced for half the time and
traced for the other half, and reports the per-layer metrics and the
tracing overhead.  The last stdout line is the result JSON; a summary and
any gate failures go to stderr, and a full record (seed, commit, Python,
nproc, verdict digest, sample counts) is written under perfbench/_results/.
Exit code 0 means every output was correct; 1 means a gate failed; 2 means
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan8", "enumerate", "lp_scale", "cli_mix")
SETUP_SAMPLES = 7
#: Every run must finish within this many seconds, set-up included.
RUN_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_frac")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class Child:
    """A worker process.

    ``ready_s`` is the time from spawn to its READY line, less the
    calibration kernel's share and scaled to the reference machine speed by
    the kernel time the worker reports next.
    """

    def __init__(self, args, seconds, trace, deadline, setup_only=False, spans=None):
        workdir = os.path.join(HERE, "_work", f"{os.getpid()}-{time.monotonic_ns()}")
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir,
        ]
        if args.smoke:
            cmd.append("--smoke")
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", spans]
        self.deadline = deadline
        self.setup_only = setup_only
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = self.proc.stdout.readline()
            self.raw_ready_s = time.perf_counter() - start
            if line.strip() != "READY":
                raise BenchError(f"worker set-up failed: {line.strip()!r}")
            fields = self.proc.stdout.readline().split()
            if len(fields) != 3 or fields[0] != "CAL":
                raise BenchError(f"worker printed no calibration line: {fields!r}")
            kernel_s, spent_s = float(fields[1]), float(fields[2])
            self.ready_s = (self.raw_ready_s - spent_s) * calibrate.REFERENCE_S / kernel_s
        except BaseException:
            self.stop()
            raise

    def result(self) -> dict:
        """The worker's JSON record; empty for a set-up-only probe."""
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker exceeded the run time limit") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        if self.setup_only:
            return {}
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return json.loads(lines[-1])

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples and never beyond them."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(record: dict, setup_samples: list) -> dict:
    wall = statistics.fmean(record["pass_s"])
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "items_per_s": record["items_per_pass"] / wall,
        "item_p50_ms": percentile(record["request_ms"], 50),
        "item_p90_ms": percentile(record["request_ms"], 90),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def provenance(args) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    src = os.path.join(ROOT, "src", "amcc")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                source.update(name.encode() + b"\0" + handle.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "commit": commit,
        "source_sha256": source.hexdigest(), "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def measure(args, deadline: float) -> tuple[dict, dict, list]:
    """Run the workload; return (metrics, record for the results file, gate failures)."""
    if args.trace == 0:
        samples = []
        for _ in range((2 if args.smoke else SETUP_SAMPLES) - 1):
            probe = Child(args, args.seconds, 0, deadline, setup_only=True)
            samples.append(probe.ready_s)
            probe.result()
        child = Child(args, args.seconds, 0, deadline)
        samples.append(child.ready_s)
        record = child.result()
        metrics = end_to_end(record, samples)
        record.update(setup_samples_s=samples)
        failures = record["failures"]
        return metrics, record, failures

    spans = os.path.join(HERE, "_results", f"{args.workload}-seed{args.seed}.spans.jsonl")
    plain = Child(args, args.seconds / 2, 0, deadline).result()
    traced = Child(args, args.seconds / 2, 1, deadline, spans=spans).result()
    metrics = dict(traced["layers"])
    plain_wall = statistics.fmean(plain["pass_s"])
    traced_wall = statistics.fmean(traced["pass_s"])
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    failures = plain["failures"] + traced["failures"]
    failures += [f"missing span: {name} was never called" for name in traced["missing"]]
    if plain["digest"] != traced["digest"]:
        failures.append("traced and untraced runs gave different verdicts")
    record = {
        "untraced": {k: v for k, v in plain.items() if k != "request_ms"},
        "traced": {k: v for k, v in traced.items() if k != "request_ms"},
        "spans_file": os.path.relpath(spans, ROOT),
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "digest": traced["digest"],
    }
    return metrics, record, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal inputs, for check.py")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "amcc", "__init__.py")):
        print(f"run.py: no amcc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "_results"), exist_ok=True)
    try:
        meta = provenance(args)
        metrics, record, failures = measure(args, deadline)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    failed = record["failed"]
    correct = not failures
    units = END_TO_END if args.trace == 0 else {name: layer_unit(name) for name in metrics}
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    path = os.path.join(
        HERE, "_results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**meta, **record, "result": result, "failures": failures}, handle, indent=1)

    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    if args.trace == 0:
        print(
            f"{args.workload} seed={args.seed}: {record['passes']} passes of "
            f"{record['requests_per_pass']} requests, {len(record['request_ms'])} timed "
            f"requests in the percentiles, failed_frac="
            f"{failed / max(record['attempted'], 1):g}, digest={record['digest'][:16]}",
            file=sys.stderr,
        )
        for name, unit in END_TO_END.items():
            print(f"  {name} = {metrics[name]:.6g} {unit}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
