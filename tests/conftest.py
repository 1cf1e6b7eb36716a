import pytest

from qpart import _kernels_py, congruence


@pytest.fixture(autouse=True)
def cold_sweep_memo():
    """Start every test with an empty family-sweep memo and no kept
    Frobenius verdict, so that no result depends on which tests ran
    before it."""
    congruence._MEMO.clear()
    congruence._frobenius_verdict.cache_clear()
    yield


@pytest.fixture
def kernel_passes(monkeypatch):
    """Every kernel pass from here on, as (kernel name, coefficients it
    computes): n - start for mul, n - len(known) for div."""
    passes = []
    mul, div = _kernels_py.mul, _kernels_py.div

    def counted_mul(a, b, n, m=None, start=0):
        passes.append(("mul", n - start))
        return mul(a, b, n, m, start)

    def counted_div(a, b, n, m=None, known=()):
        passes.append(("div", n - len(known)))
        return div(a, b, n, m, known)

    monkeypatch.setattr(_kernels_py, "mul", counted_mul)
    monkeypatch.setattr(_kernels_py, "div", counted_div)
    return passes
