"""Tests of the benchmark itself: python -m pytest perfbench"""

import collections
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import trace_layers  # noqa: E402
import worker  # noqa: E402
import qpart  # noqa: E402
import qpart.cli  # noqa: E402,F401


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_identical_job_list(workload):
    assert jobs.generate(workload, 7) == jobs.generate(workload, 7)
    assert jobs.generate(workload, 7) != jobs.generate(workload, 8)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_seeds_share_job_counts_per_stratum(workload):
    def strata(seed):
        return collections.Counter(job["stratum"] for job in jobs.generate(workload, seed))

    first = strata(1)
    assert all(strata(seed) == first for seed in range(2, 6))


def _small_jobs():
    """Cheap jobs of every kind, with answers that hold and that fail."""
    small = [jobs._claim("a", 3, 7, 2, 40, "theorem"),
             jobs._claim("b", 2, 5, 1, 40),
             jobs._claim("a", 3, 7, 4, 40, modular=True),
             {"kind": "scan", "family": "a", "ks": [1, 2], "m": 5, "upto": 50,
              "modular": True, "coeffs": 0},
             {"kind": "dissection", "upto": 20, "coeffs": 0},
             {"kind": "proof", "k": 4, "order": 100, "coeffs": 0}]
    for job in small:
        job.setdefault("stratum", "")
    cli = jobs.generate("cli-mixed", 3)
    by_op = {}
    for job in cli:
        if job["op"] != "expand" or job["order"] < 80:
            by_op.setdefault((job["op"], job.get("format")), job)
    return small + list(by_op.values())


def _answers(job_list):
    return [worker.run_job(qpart, job) for job in job_list]


def test_answers_pass_and_a_planted_wrong_answer_raises_fail_ratio():
    job_list = _small_jobs()
    wanted = [check.expected(job) for job in job_list]
    rounds = [{"answers": _answers(job_list)}]
    assert run.failures(job_list, wanted, rounds) == 0

    for i, job in enumerate(job_list):
        planted = list(wanted)
        if job["kind"] == "claim":
            planted[i] = dict(wanted[i], holds=not wanted[i]["holds"])
        elif job["kind"] == "cli":
            planted[i] = dict(wanted[i], code=wanted[i]["code"] ^ 1)
        else:
            continue
        assert run.failures(job_list, planted, rounds) == 1, job


def test_wrong_counterexample_fails():
    job = jobs._claim("b", 2, 5, 1, 40)
    job["stratum"] = ""
    want = check.expected(job)
    got = worker.run_job(qpart, job)
    assert not want["holds"] and check.check(job, want, got)
    assert not check.check(job, dict(want, value=str(int(want["value"]) + 1)), got)
    assert not check.check(job, want, {"error": "RuntimeError: boom"})


def _bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "qpart" or name.startswith("qpart.")):
            out.update({(name, attr): value for attr, value in vars(module).items()})
    out.update({("TruncatedSeries", attr): value
                for attr, value in vars(qpart.TruncatedSeries).items()})
    return out


def test_tracer_restores_functions_and_leaves_answers_unchanged():
    job_list = _small_jobs()
    before = _bindings()
    plain = _answers(job_list)

    tracer = trace_layers.Tracer()
    tracer.install()
    try:
        assert qpart.congruence.eval_eta is not before[("qpart.congruence", "eval_eta")]
        assert qpart.cli.eval_eta is qpart.congruence.eval_eta
        traced = _answers(job_list)
    finally:
        tracer.uninstall()

    assert traced == plain
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    metrics = trace_layers.layer_metrics(json.loads(json.dumps(tracer.export())), 1.0)
    assert set(metrics) == set(trace_layers.PER_LAYER)
    assert metrics["kernels.mul.calls"] > 0 and metrics["partitions.dp.calls"] > 0
    assert metrics["kernels.mul_mod.calls"] > 0 and metrics["etaq.eval.mod.calls"] > 0
    assert all(value >= 0 for name, value in metrics.items() if name.endswith(".self_s"))


def test_self_time_subtracts_children_and_overhead():
    spans = [("a", 0.0, 10.0, -1, 0, 1.0), ("b", 1.0, 4.0, 0, 0, 0.5),
             ("b", 5.0, 6.0, 0, 0, 0.0), ("c", 2.0, 3.0, 1, 0, 0.0)]
    calls, selfs = trace_layers.self_times(spans)
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert selfs == pytest.approx({"a": 5.0, "b": 2.5, "c": 1.0})
    # Only the 2 s outside the top-level span are unattributed.
    metrics = trace_layers.layer_metrics({"spans": spans, "counters": {}}, 12.0)
    assert metrics["trace.unattributed_s"] == pytest.approx(2.0)


def test_times_are_scaled_to_the_reference_speed():
    # A machine at half the reference speed: every slice takes twice CAL_REF_S.
    ref = run.calibrate.CAL_REF_S
    rounds = [{"cal": [2 * ref] * 3, "cal_at": [0, 1, 2], "rss_kb": 2048,
               "latencies": [1.0, 3.0]} for _ in range(2)]
    probes = [{"setup_s": 0.2, "cal": [2 * ref] * 3}]
    values, _ = run.end_to_end([{"coeffs": 10}, {"coeffs": 30}], rounds, probes)
    assert run.speed(rounds[0]) == pytest.approx(0.5)
    assert values["run_s"] == pytest.approx(2.0)
    assert values["setup_s"] == pytest.approx(0.1)
    assert values["checked_per_s"] == pytest.approx(20.0)
    assert values["job_s.p50"] == pytest.approx(1.0)
    assert values["peak_rss_mb"] == pytest.approx(2.0)


def test_each_job_is_scaled_by_the_slices_nearest_to_it():
    # The machine runs at half speed for the first jobs, then at full speed.
    ref = run.calibrate.CAL_REF_S
    round_ = {"cal": [2 * ref, 2 * ref, 2 * ref, ref, ref], "cal_at": [0, 1, 2, 3, 4],
              "latencies": [2.0, 2.0, 2.0, 2.0]}
    assert run.scaled(round_) == pytest.approx([1.0, 1.0, 1.0, 2.0])


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == trace_layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
