"""The decision check every benchmark run must pass.

A run's output is its per-participant decision streams — every
``decision`` hook event ``(recno, tid, verdict)`` in emission order —
and its state ratio.  They are compared with a reference run of the same
schedule mode and seed on the ``memory`` store, client-computed, with
the engine caches off (:meth:`Workload.reference_config`).  Decision
streams are byte-identical across stores, batch modes and caching, so
any difference is a regression.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.confed import Confederation, ConfederationConfig, HookBus


class DecisionRecorder:
    """Collects per-participant decision streams from a hook bus."""

    def __init__(self) -> None:
        """Start with empty streams."""
        self.streams: Dict[int, List[str]] = {}

    def attach(self, hooks: HookBus) -> "DecisionRecorder":
        """Subscribe to ``decision`` events; returns self."""
        hooks.on_decision(self._record)
        return self

    def _record(self, participant, recno, tid, decision, **_) -> None:
        self.streams.setdefault(participant, []).append(f"{recno}|{tid}|{decision}")

    def verdicts(self) -> Counter:
        """How many decisions of each verdict were recorded."""
        return Counter(
            line.rsplit("|", 1)[1] for stream in self.streams.values()
            for line in stream
        )


@dataclass(frozen=True)
class RunOutput:
    """What the decision check compares: per-participant stream digests
    and the state ratio."""

    digests: Tuple[Tuple[int, str], ...]
    state_ratio: float

    @classmethod
    def of(cls, streams: Dict[int, List[str]], state_ratio: float) -> "RunOutput":
        """Digest each participant's stream (sha256 over its lines)."""
        return cls(
            digests=tuple(
                (pid, hashlib.sha256("\n".join(lines).encode()).hexdigest())
                for pid, lines in sorted(streams.items())
            ),
            state_ratio=state_ratio,
        )


def reference_output(config: ConfederationConfig) -> RunOutput:
    """Run the reference configuration untimed and return its output."""
    hooks = HookBus()
    recorder = DecisionRecorder().attach(hooks)
    with Confederation(config, hooks=hooks) as confederation:
        report = confederation.run()
    return RunOutput.of(recorder.streams, report.state_ratio)
