"""One workload process: set up, print READY, run the timed closed loop.

Started by run.py, never by hand.  After READY the worker prints
``CAL <mean kernel seconds> <kernel seconds spent>`` for the calibration
kernel during set-up, and with ``--setup-only`` exits there; that is how
run.py samples set-up time in fresh processes.  The last stdout line is a
JSON record of the measurements.

Times in the record are scaled to the reference machine speed by the kernel
samples taken during each request, or during its pass when the request was
too short to hold three of them (see calibrate.py).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Kernel samples a request needs to be scaled by its own samples.
MIN_REQUEST_SAMPLES = 3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="write the traced spans to this JSON-lines file")
    args = parser.parse_args()
    try:
        return run(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def run(args) -> int:
    with calibrate.Sampler() as sampler:
        return measure(args, sampler)


def measure(args, sampler) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import amcc

    if not os.path.abspath(amcc.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"amcc imported from {amcc.__file__}, not from this checkout")
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    cls = workloads.WORKLOADS[args.workload]
    kwargs = {"workdir": args.workdir} if cls is workloads.CliMix else {}
    workload = cls(args.seed, smoke=args.smoke, **kwargs)
    setup_kernel_s, setup_spent = list(sampler.samples), sampler.spent
    print("READY", flush=True)
    while len(setup_kernel_s) < 5:
        setup_kernel_s.append(calibrate.sample())
    print(f"CAL {statistics.fmean(setup_kernel_s)} {setup_spent}", flush=True)
    if args.setup_only:
        return 0

    if tracer is not None:
        tracer.reset_counters()
    workload.stdout_bytes = 0
    first_verdicts: list = []
    request_s = [0.0] * len(workload.requests)  # scaled, summed over passes
    raw_pass_s: list[float] = []
    pass_s: list[float] = []
    attempted = failed = 0
    failures: list[str] = []
    kernel_in_requests = 0.0  # the spans include it
    start = time.perf_counter()
    while True:
        pass_start, pass_samples = time.perf_counter(), len(sampler.samples)
        verdicts = []
        timed = []  # (seconds without the kernel, kernel samples during the request)
        failed_in_pass = set()
        for index, request in enumerate(workload.requests):
            if tracer is not None:
                tracer.item = f"p{len(pass_s)}.r{index}"
            attempted += 1
            spent, first_sample = sampler.spent, len(sampler.samples)
            t0 = time.perf_counter()
            try:
                result = request.call()
            except Exception:
                result = None
                verdicts.append(None)
                failed_in_pass.add(index)
                failures.append(traceback.format_exc(limit=3))
            elapsed = time.perf_counter() - t0 - (sampler.spent - spent)
            kernel_in_requests += sampler.spent - spent
            timed.append((elapsed, sampler.samples[first_sample:]))
            if index in failed_in_pass:
                continue
            reference = first_verdicts[index] if first_verdicts else None
            try:
                with tracer.paused() if tracer else contextlib.nullcontext():
                    verdict = workloads.check_result(request, result, reference)
            except Exception as exc:
                verdict = getattr(exc, "verdict", None)
                failed_in_pass.add(index)
                failures.append(f"{type(exc).__name__}: {exc}")
            verdicts.append(verdict)
        for index in workload.pass_check(verdicts):
            if index not in failed_in_pass:
                failed_in_pass.add(index)
                failures.append(f"pass gate: request {index} ({workload.requests[index].label})")
        failed += len(failed_in_pass)
        kernel_s = sampler.samples[pass_samples:] or [calibrate.sample()]
        pass_kernel = statistics.fmean(kernel_s)
        scaled = [
            elapsed * calibrate.REFERENCE_S
            / (statistics.fmean(own) if len(own) >= MIN_REQUEST_SAMPLES else pass_kernel)
            for elapsed, own in timed
        ]
        for index, t in enumerate(scaled):
            request_s[index] += t
        raw_pass_s.append(sum(elapsed for elapsed, _ in timed))
        pass_s.append(sum(scaled))
        if not first_verdicts:
            first_verdicts = verdicts
        now = time.perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            break

    passes = len(pass_s)
    # Mean time per item of each distinct request: repetitions average out
    # noise, and the percentiles describe the spread over different inputs.
    request_ms = [
        1000 * t / (passes * r.items) for r, t in zip(workload.requests, request_s) if r.items
    ]
    record = {
        "passes": passes,
        "pass_s": pass_s,
        "raw_pass_s": raw_pass_s,
        "kernel_samples": len(sampler.samples),
        "kernel_mean_s": statistics.fmean(sampler.samples) if sampler.samples else None,
        "request_ms": request_ms,
        "items_per_pass": workload.items_per_pass,
        "requests_per_pass": len(workload.requests),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "digest": hashlib.sha256(
            json.dumps(first_verdicts, sort_keys=True).encode()
        ).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers, missing = tracing.layer_metrics(
            tracer, passes, max(workload.items_per_pass, 1), workload.expected_spans,
            scale=sum(pass_s) / (sum(raw_pass_s) + kernel_in_requests),
        )
        layers["cli.main.stdout_bytes"] = workload.stdout_bytes / passes
        record.update(layers=layers, missing=missing, sites=tracer.sites, spans=len(tracer.spans))
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
