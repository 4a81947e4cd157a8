#!/usr/bin/env python3
"""linscat benchmark: seeded workloads, oracle-checked, one process each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is roth_stream, sunit_cover or twisted_identity (see workloads.py for
what each exercises and why), or ``all`` to run the three, each in a fresh
interpreter, and print every metric by name with its unit.  Run from the root
of a source checkout: linscat is imported from its ``src`` directory, never
from an installed copy, and scratch files go under ``.perfbench_out``.

``--trace 0`` sets up seven times in fresh interpreters (``setup_s`` is their
median, from process start to the first timed operation), sets up once more
itself, then repeats the timed pass while the next one fits in ``--seconds``
and prints the end-to-end metrics.  ``--trace 1`` spends half the time on
untraced passes and half on traced ones (tracer.py) and prints the per-layer
metrics, averaged per traced pass, plus the tracing overhead; the spans go to
``.perfbench_out/spans-NAME-seedN.jsonl``.

Every time is in seconds at the reference host speed: a calibration kernel,
run every 50 ms on the thread doing the timed work, scales out the drift of a
shared host (see calibrate.py); the raw pass times are in the environment
block.

End-to-end metrics: ``setup_s``; ``wall_s``, the median pass time;
``points_per_s``, points settled per second of ``wall_s``; ``op_p50_ms`` and
``op_p99_ms``, the latency of one operation (one ``log_twisted_report`` call
on twisted_identity, one whole request on the two filter workloads), where
the 99th percentile is lowered to the highest rank with ten samples beyond
it, and to the median below 21 samples; ``peak_rss_mb``.  The indeterminate
fraction and the mismatch count are zero on some workloads, so they are
per-layer metrics; the mismatch count is also ``failed``.

Every pass is checked against the workload's oracle.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` counts points settled and ``failed`` counts oracle mismatches;
the line before it is the environment block (interpreter, kernel backend,
``nproc``, seed, workload parameters, sample counts, computed counts).  Exit
code 0 when every output matched, 1 on a mismatch or when linscat's sources
are missing.
"""

import argparse
import array
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7
SETUP_KERNELS = 5
WORKLOAD_NAMES = ("roth_stream", "sunit_cover", "twisted_identity")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "points_per_s": "1/s",
                    "op_p50_ms": "ms", "op_p99_ms": "ms", "peak_rss_mb": "MB"}


def _use_checkout_sources():
    if not os.path.isfile(os.path.join(SRC, "linscat", "__init__.py")):
        sys.exit("perfbench: linscat sources not found under %s; run from the "
                 "root of a linscat checkout" % SRC)
    sys.path.insert(0, SRC)


def _tail(values):
    """99th percentile by nearest rank, lowered to the highest rank with ten
    samples beyond it when there are too few; never below the median."""
    ordered = sorted(values)
    rank = min(-(-99 * len(ordered) // 100), len(ordered) - 10)
    if rank < (len(ordered) + 1) // 2:
        return statistics.median(ordered)
    return ordered[rank - 1]


def _env(args, w):
    from linscat import kernels
    return {
        "python": sys.version.split()[0],
        "kernels.USING_COMPILED": kernels.USING_COMPILED,
        "LINSCAT_FORCE_PURE": os.environ.get("LINSCAT_FORCE_PURE"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": w.params,
        "op": w.OP,
    }


def _timed_passes(w, seconds, cal, latencies, run=None, reference=None):
    """Run passes while the next one (estimated by the last) fits in the
    budget; always at least one.  Pass times and operation latencies are
    taken on the calibrator's clock and scaled to the reference speed (see
    calibrate.py).  Each output is checked against the oracle, and against
    ``reference`` when given, as it arrives; only the last is kept, so memory
    does not grow with the pass count.  Returns (pass times in s, raw pass
    times in s, mismatches, last output)."""
    run = run or w.run_once
    times, raw, failed, out = [], [], 0, None
    calls = [] if w.PER_CALL_LATENCY else None
    start = time.perf_counter()
    while not raw or time.perf_counter() - start + raw[-1] <= seconds:
        t0 = cal.now()
        out = run(calls, cal.now)
        t1 = cal.now()
        dt = (t1 - t0) * cal.factor(t0, t1)
        if calls is None:
            latencies.append(dt)
        else:
            latencies.extend((b - a) * cal.factor(a, b) for a, b in calls)
            calls.clear()
        times.append(dt / 1e9)
        raw.append((t1 - t0) / 1e9)
        failed += w.mismatches(out)
        failed += reference is not None and out != reference
    return times, raw, failed, out


def _setup_samples(args, digest):
    """Time SETUP_REPEATS fresh-interpreter set-ups, each scaled by kernel
    samples taken just before and after it; count digest mismatches."""
    samples, bad = [], 0
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        kernel_ns = [calibrate.sample_kernel() for _ in range(SETUP_KERNELS)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        kernel_ns += [calibrate.sample_kernel() for _ in range(SETUP_KERNELS)]
        reply = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((reply["ready"] - t0) * calibrate.REF_KERNEL_NS
                       / statistics.median(kernel_ns))
        bad += reply["digest"] != digest
    return samples, bad


def _layer_metrics(tracer, w, n_pass, summary, base_wall, traced_wall, scale):
    def per_pass(name):
        calls, s = tracer.total("run", name)
        return calls / n_pass, s * scale / n_pass

    def count(name):
        return tracer.counts[("run", name)] / n_pass

    m = {}
    m["kernels.prefilter.s"] = per_pass("kernels.prefilter")[1]
    m["kernels.prefilter.tuples"] = w.computed.get("kernels.prefilter.tuples", 0)
    survivors = count("kernels.prefilter.survivors")
    m["kernels.prefilter.survivors"] = survivors
    m["kernels.prefilter.useful_ratio"] = \
        summary["solutions"] / survivors if survivors else 0.0
    m["kernels.enum.s"] = per_pass("kernels.enum")[1]
    m["kernels.enum.points"] = count("kernels.enum.points")
    m["kernels.count.s"] = per_pass("kernels.count")[1]
    m["exceptional.recheck.s"] = per_pass("exceptional.recheck")[1]
    m["exceptional.recheck.points"] = survivors + m["kernels.enum.points"]
    m["exceptional.indeterminate"] = summary["indeterminate"]
    m["exceptional.support"] = summary["support"]
    m["exceptional.cover.s"] = per_pass("exceptional.cover")[1]
    m["exceptional.cover.points"] = summary["cover_points"]
    m["exceptional.cover.size"] = summary["cover_size"]
    m["exceptional.cover.candidate_spans"] = summary["cover_candidate_spans"]
    (m["exceptional.span_subspace.calls"],
     m["exceptional.span_subspace.s"]) = per_pass("exceptional.span_subspace")
    m["heights.evaluate.calls"], m["heights.evaluate.s"] = \
        per_pass("heights.evaluate")
    m["fieldarith.ops"], m["fieldarith.s"] = per_pass("fieldarith")
    m["places.arch_abs.calls"], m["places.arch_abs.s"] = \
        per_pass("places.arch_abs")
    m["places.nonarch_exponent.calls"], m["places.nonarch_exponent.s"] = \
        per_pass("places.nonarch_exponent")
    m["places.places_above.s"] = (
        tracer.total("setup", "places.places_above")[1] * scale
        + per_pass("places.places_above")[1])
    reports, m["twisted.report.s"] = per_pass("twisted.report")
    m["twisted.log_twisted_height.s"] = per_pass("twisted.log_twisted_height")[1]
    m["twisted.evaluate_per_report"] = \
        m["heights.evaluate.calls"] / reports if reports else 0.0
    m["cli.s"] = per_pass("cli")[1]
    m["trace_overhead_frac"] = traced_wall / base_wall - 1
    return m


LAYER_UNITS = {"calls": "count", "points": "count", "tuples": "count",
               "survivors": "count", "indeterminate": "count",
               "support": "count", "size": "count", "candidate_spans": "count",
               "ops": "count", "s": "s"}


def _layer_unit(name):
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "ratio")


def run_workload(args):
    import mpmath
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, "%s-%d" % (args.workload, os.getpid()))
    dps_before = mpmath.mp.dps
    try:
        w = cls(args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"ready": time.monotonic(),
                              "digest": w.input_digest()}))
            return 0
        w.oracle()
        latencies = array.array("d")
        measure = _traced if args.trace else _untraced
        metrics, passes, last, failed, extra = measure(
            args, w, cls, workdir, latencies)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = w.summary(last)
    dps_leak = mpmath.mp.dps - dps_before
    indeterminate_frac = summary["indeterminate"] / w.points
    if args.trace:
        metrics["indeterminate_frac"] = (indeterminate_frac, "ratio")
        metrics["oracle_mismatches"] = (failed, "count")
        metrics["mpmath.dps_leak"] = (dps_leak, "count")
    env = _env(args, w)
    env.update(extra)
    env.update({
        "op_samples": len(latencies),
        "passes": passes,
        "computed_counts": dict(w.computed, **{
            "exceptional.cover.candidate_spans":
                summary["cover_candidate_spans"]}),
        "per_pass": summary,
        "indeterminate_frac": indeterminate_frac,
        "oracle_mismatches": failed,
        "mpmath.dps_leak": dps_leak,
    })
    print(json.dumps({"env": env}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": w.points * passes,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _untraced(args, w, cls, workdir, latencies):
    """End-to-end metrics: fresh-interpreter set-ups, then timed passes."""
    setup, bad_setup = _setup_samples(args, w.input_digest())
    with calibrate.Calibrator() as cal:
        times, raw, failed, last = _timed_passes(w, args.seconds, cal, latencies)
    wall = statistics.median(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "points_per_s": w.points / wall,
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_p99_ms": _tail(latencies) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return ({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            len(times), last, failed + bad_setup,
            {"setup_samples_s": setup, "pass_times_s": times,
             "raw_pass_times_s": raw, "kernel_samples": len(cal.samples),
             "kernel_median_ns": statistics.median(cal.samples)})


def _traced(args, w, cls, workdir, latencies):
    """Per-layer metrics: untraced passes for the baseline wall time, then a
    traced set-up and traced passes whose outputs must equal the untraced."""
    import tracer as tracing

    half = args.seconds / 2
    with calibrate.Calibrator() as cal:
        base_times, _, base_failed, base_out = _timed_passes(
            w, half, cal, array.array("d"))
        tr = tracing.Tracer(clock=cal.now)
        tr.install()
        try:
            t0 = cal.now()
            w2 = tr.spanned("setup", cls, args.seed, workdir)
            tr.phase = "run"
            times, _, failed, last = _timed_passes(
                w, half, cal, latencies,
                run=lambda calls, clock: tr.spanned(
                    "pass", w2.run_once, calls, clock),
                reference=base_out)
            scale = cal.factor(t0, cal.now())
        finally:
            tr.uninstall()
    failed += base_failed + (w2.input_digest() != w.input_digest())
    os.makedirs(OUT, exist_ok=True)
    tr.write_spans(os.path.join(
        OUT, "spans-%s-seed%d.jsonl" % (args.workload, args.seed)))
    layer = _layer_metrics(tr, w, len(times), w.summary(last),
                           statistics.median(base_times),
                           statistics.median(times), scale)
    return ({k: (v, _layer_unit(k)) for k, v in layer.items()},
            len(base_times) + len(times), last, failed,
            {"untraced_pass_times_s": base_times, "pass_times_s": times})


def run_all(args):
    """Each workload in a fresh interpreter; print every metric by name."""
    results, ok = {}, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and proc.returncode == 0 and res["correct"]
        results[name] = res
        print("%s: correct=%s attempted=%d failed=%d"
              % (name, res["correct"], res["attempted"], res["failed"]))
        for metric, mv in res["metrics"].items():
            print("  %-36s %16.6g %s" % (metric, mv["value"], mv["unit"]))
    print(json.dumps(results))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_sources()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
