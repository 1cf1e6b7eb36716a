import pytest

from qpart import _kernels_py, congruence, etaq, partitions


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with an empty family-sweep memo, no kept count
    table, no kept cube f1^3 and no kept Frobenius verdict, so that no
    result, and no list of kernel passes, depends on which tests ran
    before it."""
    congruence._MEMO.clear()
    partitions._TABLES.clear()
    etaq._CUBES.clear()
    congruence._frobenius_verdict.cache_clear()
    yield


class _Passes(list):
    """Kernel passes as (kernel name, coefficients it computes); `work`
    adds up, per pass, those coefficients times the nonzero coefficients
    below n of its sparse operand: mul's first, div's divisor."""

    work = 0

    def clear(self):
        super().clear()
        self.work = 0


def _nonzeros(coeffs, n):
    return sum(1 for x in coeffs[:n] if x)


@pytest.fixture
def kernel_passes(monkeypatch):
    """Every kernel pass from here on, as (kernel name, coefficients it
    computes): n - start for mul, n - len(known) for div."""
    passes = _Passes()
    mul, div = _kernels_py.mul, _kernels_py.div

    def counted_mul(a, b, n, m=None, start=0, bits=None):
        passes.append(("mul", n - start))
        passes.work += (n - start) * _nonzeros(a, n)
        return mul(a, b, n, m, start, bits)

    def counted_div(a, b, n, m=None, known=(), inverse=None, scale=1, bits=None):
        passes.append(("div", n - len(known)))
        passes.work += (n - len(known)) * _nonzeros(b, n)
        return div(a, b, n, m, known, inverse, scale, bits)

    monkeypatch.setattr(_kernels_py, "mul", counted_mul)
    monkeypatch.setattr(_kernels_py, "div", counted_div)
    return passes
