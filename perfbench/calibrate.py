"""A fixed slice of work that measures how fast the machine runs now.

On a shared host the speed of one core moves within seconds and drifts
by a quarter or more over minutes, so medians over rounds do not
remove it.  The worker runs one slice between jobs after
every CAL_EVERY_S seconds of job time or more, and an import-only probe
runs PROBE_SLICES right after its set-up; the runner scales each time
by CAL_REF_S over the median of the slices run nearest to it, which
reports times at the speed where one slice takes CAL_REF_S.

The slice is frozen here and never imports qpart, so a change to
qpart cannot move it: a dense Cauchy product of big integers (the
exact lane's inner loop) and one of machine words reduced modulo a
small prime (the modular lane's), on inputs fixed at import.
"""

import time

CAL_EVERY_S = 0.15
PROBE_SLICES = 3   # slices an import-only probe times after its set-up
CAL_REF_S = 0.025

_N_BIG, _N_MOD, _P = 300, 500, 13
_BIG = [((i * 7919 + 17) % 1000003) << (i + 100) for i in range(_N_BIG)]
_SMALL = [(i * 31 + 7) % 1009 for i in range(_N_MOD)]


def _mul(a, b, n):
    out = [0] * n
    for i in range(min(len(a), n)):
        ai = a[i]
        if not ai:
            continue
        for j, bj in enumerate(b[: n - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def _mul_mod(a, b, n, m):
    out = [0] * n
    br = [x % m for x in b[:n]]
    for i in range(min(len(a), n)):
        ai = a[i] % m
        if not ai:
            continue
        for j, bj in enumerate(br[: n - i]):
            if bj:
                out[i + j] = (out[i + j] + ai * bj) % m
    return out


def slice_s() -> float:
    """Seconds one calibration slice takes now."""
    t0 = time.perf_counter()
    _mul(_BIG, _BIG, _N_BIG)
    _mul_mod(_SMALL, _SMALL, _N_MOD, _P)
    return time.perf_counter() - t0
