"""Pure-Python coefficient kernels.

The dense loops behind `TruncatedSeries` `*`, `inverse` and `**`.
Coefficient sequences are lists of Python ints and all arithmetic is
exact.  Eta-quotients do not come through here: `qpart.etaq.eval_eta`
expands them by sparse passes, in both the exact and the modular lane.
"""


def mul(a, b, n):
    """Cauchy product of coefficient sequences, truncated to length n."""
    out = [0] * n
    for i in range(min(len(a), n)):
        ai = a[i]
        if not ai:
            continue
        for j, bj in enumerate(b[: n - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def inv(a, n):
    """Multiplicative inverse of a series with constant term +1 or -1.

    Standard recurrence: b[0] = 1/a[0] and, for t >= 1,
    b[t] = -(1/a[0]) * sum_{j>=1} a[j] * b[t-j].  Zero coefficients of
    `a` are skipped, so sparse inputs invert in O(n * nnz(a)).
    """
    a0 = a[0]
    b = [0] * n
    b[0] = a0
    support = [j for j in range(1, min(len(a), n)) if a[j]]
    for t in range(1, n):
        s = 0
        for j in support:
            if j > t:
                break
            s += a[j] * b[t - j]
        b[t] = -s if a0 == 1 else s
    return b
