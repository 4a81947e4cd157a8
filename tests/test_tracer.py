"""The benchmark's tracer wraps linscat functions by module attribute; a
renamed attribute would only fail when the benchmark runs, so install and
uninstall it here."""

import importlib.util
import os
from fractions import Fraction

from linscat import nf_create
from linscat.exceptional import FormSystemSpec, enumerate_points, filter_solutions
from linscat.heights import LinearForm, ProjectivePoint
from linscat.places import INF
from linscat.twisted import TwistedHeightSpec, log_twisted_report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = _load_tracer()
    targets = [(owner, attr) for owner, attr, *_ in tracer._targets()]
    originals = [vars(owner)[attr] for owner, attr in targets]
    t = tracer.Tracer()
    try:
        t.install()
        for (owner, attr), fn in zip(targets, originals):
            assert vars(owner)[attr] is not fn, (owner, attr)
            assert vars(owner)[attr].__wrapped__ is fn, (owner, attr)
    finally:
        t.uninstall()
    for (owner, attr), fn in zip(targets, originals):
        assert vars(owner)[attr] is fn, (owner, attr)


def test_tracer_counts_the_form_layers():
    """One traced log_twisted_report over Q(sqrt2) with S = {inf, 7} shows
    calls of form evaluation and of both absolute values, so the benchmark's
    per-layer metrics cannot silently read 0."""
    tracer = _load_tracer()
    K = nf_create([-2, 0, 1])
    th = K.gen()
    forms = [LinearForm(K, [1, -th]), LinearForm(K, [th + 1, Fraction(1, 7)])]
    spec = TwistedHeightSpec(K, [INF, 7], {INF: forms, 7: forms},
                             {INF: [1, -1], 7: [Fraction(1, 2), Fraction(-1, 2)]},
                             Fraction(1, 10), Q=2)
    t = tracer.Tracer()
    try:
        t.install()
        log_twisted_report(spec, ProjectivePoint([5, 3]))
    finally:
        t.uninstall()
    for name in ("heights.evaluate", "places.arch_abs", "places.nonarch_exponent"):
        calls, _ = t.total("setup", name)
        assert calls > 0, name


def test_tracer_counts_the_kernel_layers():
    """A traced schmidt filter on P^1 with a height bound and a traced
    enumeration of P^2 show calls of the prefilter, enumeration and count
    kernels, so the benchmark's per-layer kernel metrics cannot silently
    read 0."""
    tracer = _load_tracer()
    K = nf_create([-2, 0, 1])
    th = K.gen()
    forms = [LinearForm(K, [-th, 1]), LinearForm(K, [1, 0])]
    spec = FormSystemSpec(K, [INF], {INF: forms}, w_choices={INF: 1})
    t = tracer.Tracer()
    try:
        t.install()
        filter_solutions("schmidt", spec, height_bound=50, epsilon=Fraction(3, 10))
        enumerate_points(2, 5)
    finally:
        t.uninstall()
    for name in ("kernels.prefilter", "kernels.enum", "kernels.count"):
        calls, _ = t.total("setup", name)
        assert calls > 0, name
    assert t.counts[("setup", "kernels.prefilter.survivors")] > 0
    assert t.counts[("setup", "kernels.enum.points")] == 577
