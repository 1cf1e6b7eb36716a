#!/usr/bin/env python3
"""qpart's benchmark: seeded workloads, a correctness gate, end-to-end
and per-layer metrics.

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The seed turns into a fixed job list
(jobs.py); the expected answers are computed once, before any timing
(check.py).  The job list then runs round after round, each round in a
fresh interpreter (worker.py), until --seconds have passed and at least
MIN_ROUNDS rounds are done.  Every answer of every round is checked.
Every time is reported at a reference speed: each job's latency is
scaled by CAL_REF_S over the median time of the calibration slices the
worker ran nearest to that job (calibrate.py), so that the shared
host's drifting speed cancels.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 rounds alternate untraced and traced
(trace_layers.py), and it holds the per-layer metrics instead.  Lines
before it, each starting with '#', give the same numbers for a reader
together with the environment.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import check  # noqa: E402
import jobs as joblib  # noqa: E402
import trace_layers  # noqa: E402

MIN_ROUNDS = 2     # rounds per run, so job_s.tail has >= 10 jobs beyond it
SETUP_PROBES = 32  # import-only interpreters per run, for setup_s
HARD_LIMIT_S = 150  # no round starts that could end after this
TAIL_BEYOND = 10
CAL_NEAREST = 3     # calibration slices that scale one job's latency

END_TO_END = {"setup_s": "s", "run_s": "s", "checked_per_s": "coeff/s",
              "job_s.p50": "s", "job_s.tail": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu}


def spawn(flags: list[str], payload: dict | None, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON answer,
    with setup_s measured from just before the spawn."""
    cmd = [sys.executable, "-E", "-s", str(HERE / "worker.py"), *flags]
    data = None if payload is None else json.dumps(payload).encode()
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(data, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a worker ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {err.decode()[-2000:]}")
    result = json.loads(out)
    result["setup_s"] = result["ready"] - start
    result["wall_s"] = time.monotonic() - start
    return result


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = math.ceil(pct * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def tail_percentile(jobs_per_round: int) -> float:
    """Highest percentile with TAIL_BEYOND jobs beyond it in MIN_ROUNDS rounds.

    Fixed per workload, so runs with more rounds report the same
    percentile; it is taken over the latencies of all rounds, each
    scaled to the reference speed, so at least TAIL_BEYOND lie beyond it.
    """
    return 1 - TAIL_BEYOND / (MIN_ROUNDS * jobs_per_round)


def run_rounds(job_list, flags, seconds, trace, started):
    """Closed loop over rounds for `seconds`, counted from the first round;
    returns the (untraced, traced) worker results."""
    untraced, traced = [], []
    first = time.monotonic()
    while True:
        want_traced = trace and len(traced) < len(untraced)
        elapsed = time.monotonic() - started
        result = spawn(flags, {"jobs": job_list, "trace": want_traced},
                       HARD_LIMIT_S + 25 - elapsed)
        (traced if want_traced else untraced).append(result)
        done = untraced + traced
        typical = statistics.median(r["wall_s"] for r in done)
        elapsed = time.monotonic() - started
        enough = len(traced) >= 1 if trace else len(untraced) >= MIN_ROUNDS
        measured = time.monotonic() - first
        if elapsed + typical > HARD_LIMIT_S or (enough and measured + typical > seconds):
            return untraced, traced


def scaled(round_) -> list[float]:
    """The round's job latencies at the reference speed: each times
    CAL_REF_S over the median of the CAL_NEAREST slices run nearest to
    the job.  The speed drifts within a round of a few seconds, so a
    factor for the whole round would leave that drift in."""
    slices = list(zip(round_["cal_at"], round_["cal"]))
    out = []
    for i, t in enumerate(round_["latencies"]):
        # A slice at position a ran just before job a: job i lies between
        # the slices at i and i + 1.
        near = sorted(slices, key=lambda s: min(abs(s[0] - i), abs(s[0] - i - 1)))
        out.append(t * calibrate.CAL_REF_S
                   / statistics.median(c for _, c in near[:CAL_NEAREST]))
    return out


def speed(round_) -> float:
    """The round's factor as a whole: its scaled job time over its
    measured job time.  It scales the round's per-layer times."""
    return sum(scaled(round_)) / sum(round_["latencies"])


def end_to_end(job_list, rounds, probes) -> tuple[dict, list[str]]:
    per_round = [scaled(r) for r in rounds]
    run_s = statistics.median(sum(lat) for lat in per_round)
    latencies = [t for lat in per_round for t in lat]
    pct = tail_percentile(len(job_list))
    values = {
        # Each probe is scaled by the slices it timed right after its set-up.
        "setup_s": statistics.median(p["setup_s"] * calibrate.CAL_REF_S
                                     / statistics.median(p["cal"]) for p in probes),
        "run_s": run_s,
        "checked_per_s": sum(j["coeffs"] for j in job_list) / run_s,
        "job_s.p50": statistics.median(latencies),
        "job_s.tail": nearest_rank(latencies, pct),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds) / 1024,
    }
    beyond = sum(1 for t in latencies if t > values["job_s.tail"])
    notes = [f"job_s.tail is p{100 * pct:.1f} of the {len(latencies)} jobs of "
             f"{len(rounds)} rounds; {beyond} lie beyond it"]
    return values, notes


def per_layer(untraced, traced) -> dict:
    rows = []
    for r in traced:
        row = trace_layers.layer_metrics(r["trace"], r["run_s"])
        row["cli.exit2"] = sum(1 for a in r["answers"]
                               if isinstance(a, dict) and a.get("code") == 2)
        factor = speed(r)
        rows.append({name: value * factor if trace_layers.UNITS[name] == "s" else value
                     for name, value in row.items()})
    values = {name: statistics.median(row[name] for row in rows)
              for name in trace_layers.PER_LAYER if name != "trace.overhead_ratio"}
    values["trace.overhead_ratio"] = (
        statistics.median(speed(r) * r["run_s"] for r in traced)
        / statistics.median(speed(r) * r["run_s"] for r in untraced))
    return values


def failures(job_list, wanted, rounds) -> int:
    """Jobs, over all rounds, whose answer differs from the expected one."""
    return sum(not check.check(job, want, got)
               for r in rounds
               for job, want, got in zip(job_list, wanted, r["answers"], strict=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "qpart" / "__init__.py").is_file():
        print(f"perfbench: no qpart sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    job_list = joblib.generate(args.workload, args.seed)
    wanted = [check.expected(job) for job in job_list]
    reference_s = time.monotonic() - started

    flags = ["--cli"] if args.workload == "cli-mixed" else []
    probes = []
    if not args.trace:
        probes = [spawn(["--probe", *flags], None, 60) for _ in range(SETUP_PROBES)]
    untraced, traced = run_rounds(job_list, flags, args.seconds, bool(args.trace), started)

    rounds = untraced + traced
    attempted = len(job_list) * len(rounds)
    failed = failures(job_list, wanted, rounds)
    env = dict(environment(), backend=",".join(sorted({r["backend"] for r in rounds})))
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env)}")
    baseline_file = HERE / "baseline.json"
    if baseline_file.is_file():
        base_backend = json.loads(baseline_file.read_text())["env"]["backend"]
        if base_backend != env["backend"]:
            print(f"# NOT COMPARABLE with baseline.json: backend {env['backend']}"
                  f" here, {base_backend} there")
    print(f"# rounds untraced={len(untraced)} traced={len(traced)} "
          f"jobs/round={len(job_list)} attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:g} (1)")
    print(f"# expected answers computed in {reference_s:.2f} s")
    print("# run_s per round, as measured: "
          + " ".join(f"{r['run_s']:.3f}" for r in untraced))
    print("# speed factor per round (scaled over measured job time): "
          + " ".join(f"{speed(r):.3f}" for r in untraced))
    print(f"# calibration slices per round: {min(len(r['cal']) for r in rounds)} or more")

    if args.trace:
        values, units, notes = per_layer(untraced, traced), trace_layers.UNITS, []
    else:
        (values, notes), units = end_to_end(job_list, untraced, probes), END_TO_END
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    for note in notes:
        print(f"# {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
