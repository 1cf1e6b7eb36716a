"""One round of a workload in a fresh interpreter.

Reads {"jobs": [...], "trace": bool} on stdin, runs the jobs one after
another through qpart's public API (closed loop: the next job starts
after the previous verdict), and writes one JSON object to stdout with
the answers, per-job latencies, the round's timestamps, its peak RSS
and the times of the calibration slices (calibrate.py) it ran between
jobs, which the round's run time leaves out.  With --probe it only
imports, notes when it was ready, then times a few calibration slices
to scale that set-up time.

qpart is imported from the checkout's src/ directory, never from an
installed copy, and the kernel backend is whatever qpart picks.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import calibrate

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_qpart(with_cli):
    if not (SRC / "qpart" / "__init__.py").is_file():
        sys.exit(f"perfbench worker: no qpart sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qpart
    if with_cli:
        import qpart.cli  # noqa: F401
    return qpart


def _report(rep):
    ce = rep.counterexample
    return {"holds": rep.holds, "checked_up_to": rep.checked_up_to,
            "source": rep.claim.source.value,
            "n": None if ce is None else ce.n,
            "value": None if ce is None else str(ce.value)}


def run_job(qpart, job):
    kind = job["kind"]
    if kind == "claim":
        spec = qpart.ColoredFamilySpec(qpart.Family(job["family"]), job["k"])
        claim = qpart.CongruenceClaim(spec, job["m"], job["r"], qpart.ClaimSource(job["source"]))
        return _report(qpart.verify_claim(claim, job["upto"], modular=job["modular"]))
    if kind == "scan":
        reports = qpart.scan(job["ks"], job["m"], job["upto"],
                             family=qpart.Family(job["family"]), modular=job["modular"])
        return [[r.claim.spec.colors, r.claim.residue, r.claim.source.value, r.holds,
                 r.counterexample and r.counterexample.n,
                 r.counterexample and str(r.counterexample.value)] for r in reports]
    if kind == "dissection":
        rep = qpart.verify_dissection_identity(job["upto"])
        return {"equal": rep.equal, "checked_up_to": rep.checked_up_to}
    if kind == "proof":
        trace = qpart.replay_proof(job["k"], job["order"])
        return {"verified": trace.verified, "residue": trace.residue,
                "steps": [s.name for s in trace.steps]}
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = qpart.cli.main(job["argv"])
            except SystemExit as exc:  # argparse refuses bad usage this way
                code = exc.code
        return {"code": code, "out": out.getvalue(), "err": err.getvalue()}
    raise ValueError(f"unknown job kind {kind!r}")


def main():
    probe = "--probe" in sys.argv
    with_cli = "--cli" in sys.argv
    qpart = _import_qpart(with_cli)
    if probe:
        ready = time.monotonic()
        cal = [calibrate.slice_s() for _ in range(calibrate.PROBE_SLICES)]
        print(json.dumps({"ready": ready, "cal": cal}))
        return
    request = json.load(sys.stdin)
    jobs = request["jobs"]
    tracer = None
    if request["trace"]:
        from trace_layers import Tracer
        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()

    answers, latencies, cal, cal_at = [], [], [], []
    first = time.perf_counter()
    since_cal = calibrate.CAL_EVERY_S
    for i, job in enumerate(jobs):
        if since_cal >= calibrate.CAL_EVERY_S:
            cal.append(calibrate.slice_s())
            cal_at.append(i)
            since_cal = 0.0
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            answers.append(run_job(qpart, job))
        except Exception as exc:  # an unexpected exception is a failed job
            answers.append({"error": f"{type(exc).__name__}: {exc}"})
        latencies.append(time.perf_counter() - t0)
        since_cal += latencies[-1]
    cal.append(calibrate.slice_s())
    cal_at.append(len(jobs))
    run_s = time.perf_counter() - first - sum(cal)

    result = {"ready": ready, "run_s": run_s, "latencies": latencies, "cal": cal,
              "cal_at": cal_at,
              "answers": answers, "backend": qpart.backend(),
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.export()
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
