"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench -q``.

They check that inputs are a function of the seed, that seeds change the
inputs but not their size, that tracing changes no result, that the host-speed
calibration scales by the kernel samples taken during a span, that a planted
wrong answer is counted as an oracle mismatch, that the printed metrics are
exactly the ones BENCHMARK.json declares, and that the benchmark fails
cleanly without linscat's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One untraced and one traced pass per workload, computed on demand."""
    cache = {}

    def get(name):
        if name not in cache:
            workdir = str(tmp_path_factory.mktemp(name))
            w = workloads.WORKLOADS[name](7, workdir)
            w.oracle()
            plain = w.run_once()
            tr = tracer.Tracer()
            tr.install()
            try:
                traced = w.run_once()
            finally:
                tr.uninstall()
            cache[name] = (w, plain, traced, tr)
        return cache[name]

    return get


@pytest.mark.parametrize("name", NAMES)
def test_inputs_are_deterministic(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    assert cls(5, str(tmp_path)).input_digest() == \
        cls(5, str(tmp_path)).input_digest()


@pytest.mark.parametrize("name", NAMES)
def test_seeds_change_inputs_not_size(name, tmp_path):
    sizes, digests = set(), set()
    for seed in range(8):
        w = workloads.WORKLOADS[name](seed, str(tmp_path))
        w.oracle()
        digests.add(w.input_digest())
        sizes.add((w.points, tuple(sorted(w.computed.items()))))
    assert len(digests) > 1
    assert len(sizes) == 1


def test_p1_point_count_matches_enumeration():
    from linscat import kernels
    for bound in (1, 2, 7, 30):
        assert workloads.p1_point_count(bound) == len(kernels.enum_p1(bound))


@pytest.mark.parametrize("name", NAMES)
def test_tracing_changes_no_result(name, passes):
    w, plain, traced, tr = passes(name)
    assert w.mismatches(plain) == 0
    assert traced == plain
    assert not tr._restore and tr.calls


def test_calibrator_factor_uses_samples_in_the_span():
    cal = calibrate.Calibrator()
    k = calibrate.WINDOW
    n = 3 * k
    cal.at.extend(range(0, 10 * n, 10))
    cal.samples.extend([100_000] * k + [800_000] * 2 * k)
    ref = calibrate.REF_KERNEL_NS
    assert cal.factor(0, 10 * n) == ref / 800_000
    assert cal.factor(0, 10 * k - 1) == ref / 100_000
    # Fewer than WINDOW samples inside: the WINDOW nearest the middle.
    assert cal.factor(0, 1) == ref / 100_000
    assert cal.factor(10 * n, 10 * n + 1) == ref / 800_000
    assert calibrate.Calibrator().factor(0, 1) == 1.0


def test_calibrator_samples_and_stops_its_clock():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Calibrator() as cal:
        t0 = cal.now()
        while len(cal.samples) < 3:
            sum(range(1000))
        t1 = cal.now()
    assert signal.getsignal(signal.SIGALRM) == before
    assert cal.spent_ns > 0 and list(cal.at) == sorted(cal.at)
    assert 0 < cal.factor(t0, t1) < 100


def test_planted_wrong_answers_are_counted(passes):
    w, out, _, _ = passes("roth_stream")
    assert w.mismatches(dict(out, solutions=out["solutions"][1:])) == 1
    assert w.mismatches(dict(out, indeterminate=[[1, 1]])) == 1

    w, out, _, _ = passes("sunit_cover")
    assert w.mismatches(dict(out, solutions=out["solutions"][1:])) >= 1
    assert w.mismatches(dict(out, assignment={})) == len(out["solutions"])
    assert w.mismatches(dict(out, cover=out["cover"] + [((1, 0, 0),)])) == 1

    w, out, _, _ = passes("twisted_identity")
    i = next(k for k, r in enumerate(out) if r is not None)
    planted = list(out)
    planted[i] = planted[i][:3] + (1e-3,)
    assert w.mismatches(planted) == 1


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", NAMES)
def test_printed_metrics_match_declaration(name):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        decl = json.load(fh)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run(ROOT, "--workload", name, "--seed", "3",
                    "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in decl[key]}
        env = json.loads(lines[-2])["env"]
        assert env["seed"] == 3 and "kernels.USING_COMPILED" in env


def test_fails_cleanly_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.mkdir(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), tmp_path / "perfbench")
    proc = _run(str(tmp_path), "--workload", "roth_stream", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
