"""Smoke tests for the benchmark itself, on tiny sizes of every workload.

They pin the benchmark's contract rather than any timing: every metric
``BENCHMARK.json`` names is emitted with its unit, the decision check
catches a single tampered decision, and failed ``restore()`` calls are
counted, not skipped, also when the whole run raises.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.confed import Confederation, HookBus
from repro.errors import ReproError

from perfbench import bench, calibrate
from perfbench.bench import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    measure,
    report,
    sub_seeds,
)
from perfbench.check import DecisionRecorder, RunOutput, reference_output
from perfbench.workloads import SPEC, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

#: Tiny sizes: (peers, rounds) per workload.
TINY = {
    "fig12-memory": (3, 2),
    "durable-history": (2, 2),
    "dht-async": (3, 2),
}


def _tiny(name, peers=None, rounds=None):
    """``name`` at a tiny size, one seed per pass."""
    tiny_peers, tiny_rounds = TINY[name]
    return dataclasses.replace(
        WORKLOADS[name], peers=peers or tiny_peers, rounds=rounds or tiny_rounds,
        seeds=1,
    )


def _tiny_measurement(name, tmp_path, trace, seed=5):
    return measure(_tiny(name), seed, seconds=0, trace=trace, workdir=tmp_path)


def test_enough_reconciliations_for_a_p90():
    # A single pass already gives at least ten samples beyond the 90th
    # percentile; each participant's first round is not sampled.
    for workload in WORKLOADS.values():
        samples = workload.peers * (workload.rounds - 1) * workload.seeds
        assert samples >= 100


def test_every_spec_workload_is_defined():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    for trace, units in ((False, END_TO_END_UNITS), (True, PER_LAYER_UNITS)):
        measurement = _tiny_measurement(name, tmp_path, trace)
        # Every metric the spec names is computed, and nothing else.
        computed = measurement.per_layer() if trace else measurement.end_to_end()
        assert set(computed) == set(units)
        result = report(measurement, trace)
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert json.loads(json.dumps(result)) == result
        assert set(result["metrics"]) == set(units)
        for metric, entry in result["metrics"].items():
            assert entry["unit"] == units[metric]
            assert isinstance(entry["value"], (int, float))
        if trace:
            assert len(measurement.traced) >= 1 and len(measurement.untraced) >= 1
            assert measurement.spans


def _recorded_run(workload, seed):
    hooks = HookBus()
    recorder = DecisionRecorder().attach(hooks)
    with Confederation(workload.config(seed), hooks=hooks) as confederation:
        state_ratio = confederation.run().state_ratio
    return recorder.streams, state_ratio


def _tamper_one(streams):
    """Flip the verdict of the first recorded decision."""
    pid = min(streams)
    recno, tid, verdict = streams[pid][0].rsplit("|", 2)
    flipped = "reject" if verdict != "reject" else "accept"
    return {**streams, pid: [f"{recno}|{tid}|{flipped}"] + streams[pid][1:]}


def test_one_tampered_decision_fails_the_check(tmp_path):
    workload = _tiny("fig12-memory")
    (seed,) = sub_seeds(5, 1)
    streams, state_ratio = _recorded_run(workload, seed)
    reference = reference_output(workload.reference_config(seed))
    assert RunOutput.of(streams, state_ratio) == reference
    tampered = RunOutput.of(_tamper_one(streams), state_ratio)
    assert tampered != reference

    measurement = _tiny_measurement("fig12-memory", tmp_path, trace=False)
    assert measurement.correct
    failed, attempted = measurement.failed, measurement.attempted
    before = report(measurement, False)["metrics"]["ok_op_share"]["value"]
    measurement.reps[0].output = tampered
    assert not measurement.correct
    assert measurement.failed == failed + 1
    assert measurement.attempted == attempted
    after = report(measurement, False)
    assert after["correct"] is False
    assert after["metrics"]["ok_op_share"]["value"] < before


def test_restore_failures_are_counted(tmp_path):
    # A shape on which restore() currently fails for some participants;
    # the expectation is computed independently, so a fix keeps it green.
    workload = _tiny("fig12-memory", peers=6)
    (seed,) = sub_seeds(1, 1)
    with Confederation(workload.config(seed)) as confederation:
        confederation.run()
        expected = 0
        for pid in confederation.config.peers:
            try:
                confederation.restore(pid)
            except ReproError:
                expected += 1

    measurement = measure(workload, 1, seconds=0, trace=False, workdir=tmp_path)
    assert len(measurement.reps) == bench.MIN_PASSES
    for rep in measurement.reps:
        assert rep.failed == expected == sum(rep.failures.values())
        # Every call is an operation; the first round is not a latency
        # sample.
        assert len(rep.reconcile) == len(rep.publish) == 6 * (workload.rounds - 1)
    # Per repetition: publish + reconcile per peer per round, one restore
    # per peer, plus the decision check.
    peers = len(workload.config(seed).peers)
    per_rep = 2 * peers * workload.rounds + peers + 1
    assert measurement.attempted == bench.MIN_PASSES * per_rep
    assert measurement.failed == bench.MIN_PASSES * expected
    share = report(measurement, False)["metrics"]["ok_op_share"]["value"]
    assert share == 1 - measurement.failed / measurement.attempted


def test_the_same_seed_makes_the_same_operations(tmp_path):
    # The number of passes is fixed by the run length, never by how fast
    # the host runs, so the same seed makes the same operations and the
    # same failures.
    first = _tiny_measurement("fig12-memory", tmp_path, trace=False)
    second = _tiny_measurement("fig12-memory", tmp_path, trace=False)
    assert (first.attempted, first.failed) == (second.attempted, second.failed)
    assert len(first.reps) == len(second.reps) == bench.passes(
        _tiny("fig12-memory"), 0, False
    )


def test_timings_are_scaled_to_the_reference_host_speed():
    # At twice the reference time, CPU-bound time shrinks by the
    # program's sensitivity to the factor and waiting time is kept.
    slowed = 2.0**calibrate.SENSITIVITY
    assert calibrate.scaled(1.0, 0.6, 2.0) == pytest.approx(0.4 + 0.6 / slowed)
    assert calibrate.scaled(1.0, 1.0, 1.0) == 1.0
    assert calibrate.speed_factor([calibrate.REFERENCE_S] * 3) == 1.0
    # A call is scaled by the probes around it.
    rep = bench.Repetition(seed=1, traced=False)
    rep.probes = [2 * calibrate.REFERENCE_S] * 10 + [calibrate.REFERENCE_S] * 20
    rep.reconcile += [(0.004, 0.004, 1), (0.004, 0.004, 25)]
    assert rep.scaled_ms(rep.reconcile) == [
        pytest.approx(4.0 / slowed), pytest.approx(4.0)
    ]


class _BrokenRun(Confederation):
    """A confederation whose ``run()`` always raises."""

    def run(self):
        raise RuntimeError("broken program")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_run_that_raises_still_prints_a_failed_result(
    trace, tmp_path, monkeypatch, capsys
):
    # Only the measured runs break; the reference runs stay intact.
    monkeypatch.setattr(bench, "Confederation", _BrokenRun)
    monkeypatch.setitem(WORKLOADS, "fig12-memory", _tiny("fig12-memory"))
    argv = ["--workload", "fig12-memory", "--seed", "5", "--seconds", "0",
            "--trace", trace]
    assert bench.main(argv, tmp_path) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    units = PER_LAYER_UNITS if trace == "1" else END_TO_END_UNITS
    assert result["correct"] is False
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    # Each repetition's decision check failed; its restores still ran.
    traced = trace == "1"
    repetitions = bench.passes(WORKLOADS["fig12-memory"], 0, traced) * (
        2 if traced else 1
    )
    assert result["failed"] >= repetitions
    assert result["attempted"] >= result["failed"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    command = SPEC["command"] + [
        "--workload", "fig12-memory", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    ]
    command[0] = sys.executable
    done = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert done.returncode != 0
    assert done.stdout == ""
