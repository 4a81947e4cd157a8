import mpmath
import pytest


@pytest.fixture(autouse=True)
def no_mpmath_precision_leak():
    """No call may leak global mpmath precision: a test that leaves
    mpmath.mp.prec or mpmath.iv.prec changed fails at teardown, and the
    precisions are restored so the leak reaches no later test."""
    before = mpmath.mp.prec, mpmath.iv.prec
    yield
    after = mpmath.mp.prec, mpmath.iv.prec
    mpmath.mp.prec, mpmath.iv.prec = before
    assert after == before, "mpmath (mp.prec, iv.prec) leaked: %r -> %r" % (before, after)
