"""The benchmark's tracer wraps linscat functions by module attribute; a
renamed attribute would only fail when the benchmark runs, so install and
uninstall it here."""

import importlib.util
import os

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
