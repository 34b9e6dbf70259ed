"""Measure one workload: closed-loop confederation runs, timed from outside.

One benchmark invocation builds, runs and recovers the workload's
confederation over and over (one *repetition* each), from a single
process and thread; the serial scheduler runs on it, and the async
scheduler runs its one event loop on it.  Each participant's next step
waits for its previous one (the paper's schedule, a closed loop).  A
*pass* runs one repetition per workload seed; the seeds are derived from
``--seed`` (:func:`sub_seeds`).  The number of passes is fixed by
``--seconds`` and the workload's nominal pass time (:func:`passes`),
never by how fast the host happens to run, so one seed and run length
always make the same operations, and the same failures.

The host's speed drifts by tens of percent over seconds to minutes
(other work shares its cores).  Every timing is therefore scaled to a
reference host speed by a calibration probe taken right after each
timed call (:mod:`perfbench.calibrate`); the metrics are medians and
percentiles over the repetitions.

Set-up is sampled apart from the repetitions: after one untimed,
uncounted warm-up repetition, ``SETUPS_PER_REPETITION`` timed open/close
cycles precede each repetition (``setup_s`` is their median).  A
repetition:

1. ``Confederation.open()`` — store build plus peer registration;
2. ``run()`` — the evaluation schedule; each ``Participant.publish`` and
   ``Participant.reconcile`` call is counted, and timed from the
   second round on, through an instance-attribute wrapper
   (``publish_*_ms``, ``reconcile_*_ms``; ``txn_per_s`` times the whole
   ``run()``);
3. recovery — for a file store, close and reopen the database; then
   ``restore()`` every participant, counting each one that raises
   (``recovery_s``; failures count in the failure accounting);
4. the decision check against the reference run of its seed
   (:mod:`perfbench.check`), made after the timed passes.

With ``--trace 1`` every seed runs untraced and then traced; traced
repetitions wrap every layer entry point (:mod:`perfbench.trace`) and
give the per-layer metrics, the untraced ones the ``trace.overhead``
base.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.confed import Confederation, HookBus
from repro.store.registry import create_store
from repro.workload import curated_schema

from perfbench import calibrate
from perfbench.calibrate import scaled
from perfbench.check import DecisionRecorder, RunOutput, reference_output
from perfbench.trace import Span, Tracer, self_times, write_spans
from perfbench.workloads import DB_NAME, SPEC, WORKLOADS, Workload

#: Timed open/close cycles before each repetition that sample
#: ``setup_s``; spread over the whole invocation, so that their median
#: sees the same host as the repetitions.
SETUPS_PER_REPETITION = 2

#: Passes every invocation makes at least.
MIN_PASSES = 1

#: A traced pass (each seed untraced, then traced) in nominal passes.
TRACED_PASS_COST = 3

#: Name -> unit of the metrics each mode prints, from ``BENCHMARK.json``.
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: ``net.msgs.<kind>``: one per message kind the spec names; a kind the
#: program no longer sends reads 0, a kind it newly sends is not printed.
MESSAGE_KINDS = tuple(
    name[len("net.msgs."):] for name in PER_LAYER_UNITS if name.startswith("net.msgs.")
)

#: (object path, method, span name) of every wrapped layer entry point;
#: the object path is resolved against a participant.
PARTICIPANT_SPANS = (
    ("", "publish", "cdss.publish"),
    ("", "reconcile", "cdss.reconcile"),
    ("session", "run", "core.session"),
    ("instance", "apply_all", "instance.apply_all"),
    ("instance", "apply_set", "instance.apply_set"),
    ("policy", "priority_of", "policy.priority"),
)
STORE_SPANS = (
    ("register_participant", "store.register"),
    ("publish", "store.publish"),
    ("reconciliation_batch", "store.batch"),
    ("complete_reconciliation", "store.complete"),
)


#: (wall seconds, CPU seconds) of one timed interval.
Timing = Tuple[float, float]
#: A timed call: (wall seconds, CPU seconds, index of the probe right
#: after it).
Call = Tuple[float, float, int]


def _clocks() -> Timing:
    return time.perf_counter(), time.process_time()


def _since(start: Timing) -> Timing:
    wall, cpu = _clocks()
    return wall - start[0], cpu - start[1]


@dataclass
class Repetition:
    """Measurements of one build-run-recover cycle."""

    seed: int
    traced: bool
    #: Wall and CPU seconds of ``run()``.
    run_s: float = 0.0
    run_cpu_s: float = 0.0
    transactions: int = 0
    messages: int = 0
    #: Every publish and reconcile call of ``run()``; ``publish`` and
    #: ``reconcile`` hold the sampled ones.
    calls: List[Call] = field(default_factory=list)
    publish: List[Call] = field(default_factory=list)
    reconcile: List[Call] = field(default_factory=list)
    #: The recovery steps: a file store's reopen, then each ``restore()``.
    recovery: List[Call] = field(default_factory=list)
    #: Calibration probes (:mod:`perfbench.calibrate`), one right after
    #: each timed call and recovery step; the first ``run_probes`` were taken
    #: during ``run()``.  ``probe_s`` is the wall time they took there,
    #: which ``run_s`` leaves out.
    probes: List[float] = field(default_factory=list)
    run_probes: int = 0
    probe_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    #: The run's output, or None when the run raised.
    output: Optional[RunOutput] = None
    #: Per-layer metrics (traced repetitions only).
    layers: Dict[str, float] = field(default_factory=dict)

    def probe(self) -> int:
        """Take one calibration probe; returns its index."""
        started = time.perf_counter()
        self.probes.append(calibrate.sample())
        self.probe_s += time.perf_counter() - started
        return len(self.probes) - 1

    def timed(self, step: Callable[[], object], into: List[Call]) -> None:
        """Time ``step()`` into ``into``, also when it raises, then probe."""
        started = _clocks()
        try:
            step()
        finally:
            into.append((*_since(started), self.probe()))

    def scaled_ms(self, calls: List[Call]) -> List[float]:
        """``calls`` at reference host speed, in ms."""
        return [
            scaled(wall, cpu, calibrate.factor_at(self.probes, index)) * 1e3
            for wall, cpu, index in calls
        ]

    @property
    def run_speed(self) -> float:
        """Host speed factor during ``run()`` (1.0 when unprobed)."""
        probes = self.probes[:self.run_probes]
        return calibrate.speed_factor(probes) if probes else 1.0

    @property
    def scaled_run_s(self) -> float:
        """``run()`` at reference host speed: each publish and reconcile
        call scaled by the probes around it, the time between calls by
        every probe of the run."""
        wall = self.run_s - sum(c[0] for c in self.calls)
        cpu = self.run_cpu_s - sum(c[1] for c in self.calls)
        return sum(self.scaled_ms(self.calls)) / 1e3 + scaled(
            max(wall, 0.0), max(cpu, 0.0), self.run_speed
        )

    @property
    def scaled_recovery_s(self) -> float:
        """Recovery at reference host speed."""
        return sum(self.scaled_ms(self.recovery)) / 1e3

    def count(self, error: Optional[BaseException] = None) -> None:
        """Account one attempted operation, failed when ``error`` is set."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.failures[type(error).__name__] += 1


def _timed(method: Callable, samples: List[Call], rep: Repetition) -> Callable:
    """Wrap a participant method: count and time each call, probe the
    host's speed right after it, and sample each call after the first.

    A participant's first publish and reconcile (the schedule's first
    round) run against a nearly empty store: a start-up ramp whose
    latencies grow with the participant's position in the round.  Left
    in, the median reconciliation falls on that ramp, where it moves
    about twice as much as the rest with host speed; the first round
    therefore counts as operations but not as latency samples.
    """
    calls = 0

    def timed(*args, **kwargs):
        nonlocal calls
        calls += 1
        started = _clocks()
        try:
            result = method(*args, **kwargs)
        except Exception as exc:
            rep.count(exc)
            raise
        call = (*_since(started), rep.probe())
        rep.calls.append(call)
        if calls > 1:
            samples.append(call)
        rep.count()
        return result

    return timed


def _build_store(config):
    return create_store(config.store, curated_schema(), **config.store_options)


def _close_store(store) -> None:
    close = getattr(store, "close", None)
    if close is not None:
        close()


def _clear_files(workdir: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        (workdir / (DB_NAME + suffix)).unlink(missing_ok=True)


def _disk_bytes(workdir: Path) -> int:
    return sum(
        path.stat().st_size
        for path in (workdir / DB_NAME, workdir / (DB_NAME + "-wal"))
        if path.exists()
    )


def setup_sample(workload: Workload, seed: int, workdir: Path) -> Timing:
    """Time one ``Confederation.open()`` on fresh files, then close."""
    _clear_files(workdir)
    confederation = Confederation(workload.config(seed, workdir))
    # The previous repetition's garbage is not set-up work.
    gc.collect()
    started = _clocks()
    confederation.open()
    elapsed = _since(started)
    confederation.close()
    return elapsed


def repetition(
    workload: Workload, seed: int, workdir: Path, tracer: Optional[Tracer] = None
) -> Repetition:
    """One build-run-recover cycle of ``workload``; traced when a
    ``tracer`` is given."""
    _clear_files(workdir)
    config = workload.config(seed, workdir)
    rep = Repetition(seed=seed, traced=tracer is not None)
    hooks = HookBus()
    recorder = DecisionRecorder().attach(hooks)

    # The store is built here, through the store registry open() uses,
    # and adopted, so that a traced run can wrap it before registration.
    store = _build_store(config)
    if tracer is not None:
        for method, name in STORE_SPANS:
            tracer.wrap(store, method, name)
        tracer.wrap(store, "pay_latency", "net.pay_latency", sum_arg=True)
        tracer.active = True
    confederation = Confederation(config, store=store, hooks=hooks).open()

    for participant in confederation.participants:
        if tracer is None:
            participant.publish = _timed(participant.publish, rep.publish, rep)
            participant.reconcile = _timed(participant.reconcile, rep.reconcile, rep)
        else:
            for path, method, name in PARTICIPANT_SPANS:
                target = getattr(participant, path) if path else participant
                tracer.wrap(target, method, name)
    if tracer is not None:
        tracer.wrap(confederation.generator, "transaction_updates", "workload.gen")
        tracer.arg_sums.clear()

    run_start_ns = time.perf_counter_ns()
    run_start_cpu = time.process_time()
    try:
        report = confederation.run()
    except Exception as exc:
        report = None
        rep.failures[f"run:{type(exc).__name__}"] += 1
    rep.run_s = (time.perf_counter_ns() - run_start_ns) / 1e9 - rep.probe_s
    rep.run_cpu_s = time.process_time() - run_start_cpu - rep.probe_s
    rep.run_probes = len(rep.probes)
    if tracer is not None:
        tracer.active = False
        # Traced publish/reconcile calls are counted from their spans;
        # a call that raised aborted the run, which fails the check.
        _, calls = self_times(tracer.spans, run_start_ns)
        rep.attempted += calls["cdss.publish"] + calls["cdss.reconcile"]
        if report is not None:
            rep.layers = _layer_metrics(
                tracer, run_start_ns, rep, report, store, recorder, workdir
            )
    if report is not None:
        rep.transactions = report.transactions_published
        rep.messages = report.store_messages
        rep.output = RunOutput.of(recorder.streams, report.state_ratio)

    if workload.file_backed:
        def reopen():
            nonlocal confederation, store
            confederation.close()
            _close_store(store)
            store = _build_store(config)
            confederation = Confederation(config, store=store).open()

        rep.timed(reopen, rep.recovery)
    for pid in config.peers:
        try:
            rep.timed(lambda: confederation.restore(pid), rep.recovery)
        except Exception as exc:
            rep.count(exc)
        else:
            rep.count()
    confederation.close()
    _close_store(store)
    return rep


def _layer_metrics(
    tracer: Tracer,
    run_start_ns: int,
    rep: Repetition,
    report,
    store,
    recorder: DecisionRecorder,
    workdir: Path,
) -> Dict[str, float]:
    """Fold one traced repetition into the per-layer metrics."""
    seconds, calls = self_times(tracer.spans, run_start_ns)
    setup_seconds, _ = self_times(tracer.spans)
    wait = rep.run_s - sum(seconds.values())
    charged = tracer.arg_sums["net.pay_latency"]
    txns = max(report.transactions_published, 1)
    pages = getattr(store, "page_cache_stats", lambda: None)()
    page_lookups = pages["hits"] + pages["misses"] if pages else 0
    verdicts = recorder.verdicts()
    wire_bytes = sum(report.kind_bytes.values())
    layers = {
        "confed.wait_s": wait,
        "confed.latency_overlap": charged / wait if wait > 0 else 0.0,
        "workload.gen_s": seconds["workload.gen"],
        "workload.gen_calls": calls["workload.gen"],
        "instance.apply_all_s": seconds["instance.apply_all"],
        "instance.apply_all_calls": calls["instance.apply_all"],
        "instance.apply_set_s": seconds["instance.apply_set"],
        "instance.apply_set_calls": calls["instance.apply_set"],
        "policy.priority_s": seconds["policy.priority"],
        "policy.priority_calls": calls["policy.priority"],
        "core.session_s": seconds["core.session"],
        "core.sessions": calls["core.session"],
        "core.ext_hit_rate": report.cache_stats.hit_rate,
        "core.pair_hit_rate": report.cache_stats.pair_hit_rate,
        "core.accepted": verdicts["accept"],
        "core.rejected": verdicts["reject"],
        "core.deferred": verdicts["defer"],
        "cdss.self_s": seconds["cdss.publish"] + seconds["cdss.reconcile"],
        "store.batch_s": seconds["store.batch"],
        "store.batch_calls": calls["store.batch"],
        "store.complete_s": seconds["store.complete"],
        "store.publish_s": seconds["store.publish"],
        "store.register_s": setup_seconds["store.register"],
        "store.sim_latency_s": store.perf.simulated_seconds,
        "store.page_hit_rate": pages["hits"] / page_lookups if page_lookups else 0.0,
        "store.page_evictions": pages["evictions"] if pages else 0,
        "store.peak_resident": pages["peak_resident"] if pages else 0,
        "store.disk_bytes_per_txn": _disk_bytes(workdir) / txns,
        "net.pay_s": seconds["net.pay_latency"],
        "net.latency_charged_s": charged,
        "net.messages": sum(report.kind_counts.values()),
        "net.bytes": wire_bytes,
        "net.wire_bytes_per_txn": wire_bytes / txns,
    }
    for kind in MESSAGE_KINDS:
        layers[f"net.msgs.{kind}"] = report.kind_counts.get(kind, 0)
    return layers


def percentile(samples: List[float], share: float) -> float:
    """Nearest-rank percentile of ``samples``; 0 when there are none."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sub_seeds(seed: int, count: int) -> List[int]:
    """The workload seeds one invocation runs, derived from ``--seed``."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


@dataclass
class Measurement:
    """Everything one invocation measured."""

    workload: Workload
    seed: int
    #: ``Confederation.open()`` seconds at reference host speed.
    setups: List[float]
    reps: List[Repetition]
    spans: List[Span]
    peak_rss_mb: float
    #: Wall seconds of the passes.
    measuring_s: float
    #: Reference output per workload seed.
    references: Dict[int, RunOutput]

    @property
    def untraced(self) -> List[Repetition]:
        """Repetitions without span wrappers."""
        return [r for r in self.reps if not r.traced]

    @property
    def traced(self) -> List[Repetition]:
        """Repetitions with span wrappers."""
        return [r for r in self.reps if r.traced]

    def check_passed(self, rep: Repetition) -> bool:
        """The decision check: ``rep`` reproduced its seed's reference."""
        return rep.output == self.references[rep.seed]

    @property
    def attempted(self) -> int:
        """Operations attempted: publish, reconcile and restore calls
        plus one decision check per repetition."""
        return sum(r.attempted for r in self.reps) + len(self.reps)

    @property
    def failed(self) -> int:
        """Operations that raised, plus failed decision checks."""
        return sum(r.failed for r in self.reps) + sum(
            not self.check_passed(r) for r in self.reps
        )

    @property
    def correct(self) -> bool:
        """True when every repetition reproduced the reference decisions."""
        return all(self.check_passed(r) for r in self.reps)

    def by_seed(self) -> List[List[Repetition]]:
        """The untraced repetitions, grouped by workload seed."""
        groups: Dict[int, List[Repetition]] = {}
        for rep in self.untraced:
            groups.setdefault(rep.seed, []).append(rep)
        return list(groups.values())

    def end_to_end(self) -> Dict[str, float]:
        """The end-to-end metrics from the untraced repetitions, at
        reference host speed: run and recovery times are each seed's
        median over the passes, latencies percentiles over every sampled
        call of every pass.  ``recovery_s`` is the median over seeds: a
        few seeds restore several times slower than the rest.

        A metric nothing was measured for (every ``run()`` raised) reads
        0; such a run has also failed the decision check."""
        groups = self.by_seed()
        reps = self.untraced
        reconciles = [ms for r in reps for ms in r.scaled_ms(r.reconcile)]
        publishes = [ms for r in reps for ms in r.scaled_ms(r.publish)]
        transactions = sum(group[0].transactions for group in groups)
        return {
            "setup_s": statistics.median(self.setups),
            "txn_per_s": _ratio(transactions, sum(
                statistics.median(r.scaled_run_s for r in group) for group in groups
            )),
            "reconcile_p50_ms": percentile(reconciles, 0.5),
            "reconcile_p90_ms": percentile(reconciles, 0.9),
            "publish_p50_ms": percentile(publishes, 0.5),
            "publish_p90_ms": percentile(publishes, 0.9),
            "recovery_s": statistics.median(
                statistics.median(r.scaled_recovery_s for r in group)
                for group in groups
            ),
            "ok_op_share": 1 - self.failed / self.attempted,
            "peak_rss_mb": self.peak_rss_mb,
            "messages_per_txn": _ratio(
                sum(group[0].messages for group in groups), transactions
            ),
        }

    def per_layer(self) -> Dict[str, float]:
        """The per-layer metrics: means over traced repetitions whose run
        completed (none completed: every layer metric reads 0)."""
        traced = [r for r in self.traced if r.layers]
        layers = {
            name: statistics.fmean(r.layers[name] for r in traced)
            for name in traced[0].layers
        } if traced else dict.fromkeys(PER_LAYER_UNITS, 0.0)
        layers["confed.failed_op_share"] = self.failed / self.attempted
        layers["trace.overhead"] = _ratio(
            sum(r.run_s for r in self.traced), sum(r.run_s for r in self.untraced)
        )
        return layers


def passes(workload: Workload, seconds: float, trace: bool) -> int:
    """Whole passes an invocation of ``seconds`` makes: as many nominal
    pass times as fit, at least ``MIN_PASSES``; a traced pass (each seed
    untraced, then traced) counts as ``TRACED_PASS_COST`` nominal passes.

    A fixed count, so the same seed and run length always make the same
    operations; a faster program measures for less time."""
    cost = workload.pass_seconds * (TRACED_PASS_COST if trace else 1)
    return max(MIN_PASSES, round(seconds / cost))


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
) -> Measurement:
    """Run ``workload`` in :func:`passes` whole passes over its
    seeds, then check every repetition's decisions.

    Each set-up sample is scaled by calibration samples taken just
    before it; calls inside a repetition by the probes around them.
    With ``trace``, each seed of a pass runs untraced and then traced, so
    ``trace.overhead`` compares identical inputs.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    seeds = sub_seeds(seed, workload.seeds)
    # Warm-up, untimed and uncounted: lazy imports and first-call costs
    # of every step, recovery included.
    repetition(workload, seeds[0], workdir)
    setups: List[float] = []
    reps: List[Repetition] = []
    spans: List[Span] = []
    started = time.perf_counter()
    for _ in range(passes(workload, seconds, trace)):
        for workload_seed in seeds:
            for _ in range(SETUPS_PER_REPETITION):
                speed = calibrate.speed_factor(calibrate.samples())
                timing = setup_sample(workload, workload_seed, workdir)
                setups.append(scaled(*timing, speed))
            reps.append(repetition(workload, workload_seed, workdir))
            if trace:
                tracer = Tracer(run=len(reps))
                reps.append(repetition(workload, workload_seed, workdir, tracer))
                spans.extend(tracer.spans)
    measuring_s = time.perf_counter() - started
    peak_rss = _peak_rss_mb()
    _clear_files(workdir)
    references = {
        s: reference_output(workload.reference_config(s)) for s in seeds
    }
    return Measurement(
        workload, seed, setups, reps, spans, peak_rss, measuring_s, references
    )


def host_metadata() -> Dict[str, object]:
    """The host a measurement ran on."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _metric_block(values: Dict[str, float], units: Dict[str, str]) -> Dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def report(measurement: Measurement, trace: bool) -> Dict[str, object]:
    """The result object printed as the last line of standard output."""
    if trace:
        metrics = _metric_block(measurement.per_layer(), PER_LAYER_UNITS)
    else:
        metrics = _metric_block(measurement.end_to_end(), END_TO_END_UNITS)
    return {
        "correct": measurement.correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": metrics,
    }


def summary(measurement: Measurement) -> List[str]:
    """Human-readable lines printed before the result."""
    reps = measurement.untraced
    speeds = sorted(r.run_speed for r in reps)
    failures = sum((r.failures for r in measurement.reps), Counter())
    passed = sum(measurement.check_passed(r) for r in measurement.reps)
    return [
        f"workload {measurement.workload.name} seed {measurement.seed}: "
        + json.dumps(measurement.workload.describe()),
        "host: " + json.dumps(host_metadata()),
        f"measured for {measurement.measuring_s:.1f} s; "
        f"repetitions: {len(reps)} untraced, {len(measurement.traced)} traced; "
        f"samples: setup {len(measurement.setups)}, publish "
        f"{sum(len(r.publish) for r in reps)}, reconcile "
        f"{sum(len(r.reconcile) for r in reps)}",
        f"host speed factor (1 = reference): median "
        f"{statistics.median(speeds):.3f}, range {speeds[0]:.3f}-{speeds[-1]:.3f}; "
        f"unscaled txn_per_s {_ratio(sum(r.transactions for r in reps), sum(r.run_s for r in reps)):.2f}",
        f"decision check: {passed}/{len(measurement.reps)} repetitions match "
        f"the memory/uncached reference",
        f"failures: {dict(sorted(failures.items()))}; failed_op_share "
        f"{measurement.failed / measurement.attempted:.6f} "
        f"({measurement.failed}/{measurement.attempted})",
    ]


def main(argv: List[str], root: Path) -> int:
    """Command-line entry point; ``root`` is the checkout being measured."""
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    state = root / ".perfbench"
    workdir = state / f"work-{os.getpid()}"
    try:
        measurement = measure(
            WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        write_spans(measurement.spans, state / f"spans-{args.workload}.jsonl")
    for line in summary(measurement):
        print(line)
    print(json.dumps(report(measurement, bool(args.trace))))
    return 0
