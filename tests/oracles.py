"""Independent brute-force oracles used only by the tests.

Everything here works on plain coefficient lists with its own O(n^2)
loops: no kernel, no pentagonal sum, no DP shared with the package.
"""


def poly_mul(a, b, order):
    out = [0] * order
    for i, x in enumerate(a[:order]):
        if x:
            for j, y in enumerate(b[: order - i]):
                if y:
                    out[i + j] += x * y
    return out


def poly_inv(a, order):
    """Inverse for constant term +-1, by direct back-substitution."""
    a0 = a[0]
    assert a0 in (1, -1)
    out = [0] * order
    out[0] = a0
    for t in range(1, order):
        s = sum(a[j] * out[t - j] for j in range(1, min(t, len(a) - 1) + 1))
        out[t] = -a0 * s
    return out


def pochhammer_by_product(k, order):
    """(q^k; q^k)_infinity by multiplying out the finite partial product
    (1 - q^k)(1 - q^(2k))...; factors beyond the order are 1 mod q^order."""
    out = [1] + [0] * (order - 1)
    j = k
    while j < order:
        factor = [0] * (j + 1)
        factor[0] = 1
        factor[j] = -1
        out = poly_mul(out, factor, order)
        j += k
    return out


def two_color_overlay_series(order):
    """(-q; q)_infinity^2 / (q; q)_infinity from first principles:
    numerator factors (1 + q^j)^2, denominator factors (1 - q^j)."""
    num = [1] + [0] * (order - 1)
    for j in range(1, order):
        factor = [0] * (j + 1)
        factor[0] = 1
        factor[j] = 1
        num = poly_mul(num, poly_mul(factor, factor, order), order)
    den = pochhammer_by_product(1, order)
    return poly_mul(num, poly_inv(den, order), order)


def colored_partition_counts(spec, order):
    """Counts of colored partitions of n < order by an unbounded
    knapsack: a weight with c colors is c separate part types, each
    added once over every total it can reach."""
    counts = [1] + [0] * (order - 1)
    for weight in range(1, order):
        for _ in range(spec.color_count(weight)):
            for total in range(weight, order):
                counts[total] += counts[total - weight]
    return counts
