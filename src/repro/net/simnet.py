"""Synchronous simulated network with latency, message, and byte accounting.

Delivery model: :meth:`Network.post` enqueues a message; :meth:`Network.run`
drains the queue in FIFO order, invoking each recipient's handler, which
may post further messages.  Each delivered message advances the simulated
clock by the per-message latency and increments the message counter —
messages are accounted *serially*, matching the paper's single-machine
deployment where every hop paid its injected delay.

Payload size is accounted two ways: ``fragments`` (size-bounded DHT
messages — a large payload travels as several fragments, each paying the
per-message latency) and ``size_bytes`` (an estimated wire size, summed
into :attr:`Network.bytes_delivered` so protocols that ship derived data
— e.g. store-computed update extensions — expose their bandwidth cost,
not just their round-trip count).

Failure injection: a node can be taken down; messages to a down node raise
:class:`~repro.errors.NetworkError` by default, or are silently dropped
when the network is created with ``drop_to_failed=True`` (useful for
testing recovery protocols such as epoch-allocator reconstruction).
Dropped messages are *not* accounted: the clock, the message counter,
``bytes_delivered``, and ``kind_counts`` only ever reflect deliveries
that happened.

Deterministic fault injection (PR 6): an *injector* — any object with an
``intercept(message)`` method, e.g.
:class:`repro.net.faults.FaultInjector` — can be attached via
:attr:`Network.injector`.  It is consulted once per dequeued message and
returns an action: ``"deliver"`` (the default path), ``"drop"`` (the
message vanishes, unaccounted, like a drop to a failed node),
``"duplicate"`` (a marked copy is re-enqueued and delivered — and
accounted — a second time; copies are never re-intercepted), or
``"delay"`` with extra seconds added to the simulated clock.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from repro.errors import NetworkError

#: Default per-message latency, seconds (the paper's 500 microseconds).
DEFAULT_LATENCY = 500e-6

#: Estimated wire size of one fragment when the sender does not supply an
#: explicit ``size_bytes`` (header + one bounded payload unit).
DEFAULT_FRAGMENT_BYTES = 256


@dataclass
class Message:
    """One network message: sender, recipient, a kind tag, and a payload.

    ``fragments`` models payload size: DHT messages have bounded size, so
    a large payload (e.g. a transaction body with many updates) travels as
    several fragments, each paying the per-message latency.  Delivery to
    the handler still happens once, after the last fragment.

    ``size_bytes`` is the estimated wire size of the whole message; 0
    (the default) means "unspecified" and is accounted as
    ``fragments * DEFAULT_FRAGMENT_BYTES``.
    """

    sender: str
    recipient: str
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    fragments: int = 1
    size_bytes: int = 0
    #: True on copies created by an injected "duplicate" fault; such
    #: copies are delivered but never intercepted again (no fault
    #: cascades off an injected fault).
    injected: bool = False

    def wire_bytes(self) -> int:
        """The bytes this message is accounted at."""
        return self.size_bytes or self.fragments * DEFAULT_FRAGMENT_BYTES

    def __str__(self) -> str:
        return f"{self.sender} -> {self.recipient}: {self.kind}"


class Node(abc.ABC):
    """A protocol participant addressable by name."""

    def __init__(self, name: str) -> None:
        self.name = name

    @abc.abstractmethod
    def handle(self, network: "Network", message: Message) -> None:
        """Process ``message``; may post further messages on ``network``."""


class Network:
    """Deterministic FIFO message bus with latency accounting."""

    def __init__(
        self,
        latency: float = DEFAULT_LATENCY,
        drop_to_failed: bool = False,
    ) -> None:
        self._nodes: Dict[str, Node] = {}
        self._queue: Deque[Message] = deque()
        self._failed: set = set()
        self._latency = latency
        self._drop_to_failed = drop_to_failed
        #: Optional fault injector consulted per dequeued message (see
        #: the module docstring and :mod:`repro.net.faults`).
        self.injector: Optional[Any] = None
        self.messages_delivered = 0
        self.bytes_delivered = 0
        self.simulated_seconds = 0.0
        #: Fragments delivered per message kind — the protocol mix.
        #: Tests and benchmarks read this to show *where* a mode's
        #: traffic goes (e.g. the fully network-centric batch trades
        #: ``txn_data`` deliveries for ``nc_fetch_batch`` verdict
        #: chatter) without parsing transcripts.
        self.kind_counts: Dict[str, int] = {}
        #: Wire bytes delivered per message kind, next to
        #: :attr:`kind_counts`: the per-kind share of
        #: :attr:`bytes_delivered`, so each protocol layer's byte cost
        #: (and saving) is pinned independently.
        self.kind_bytes: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Topology

    def add_node(self, node: Node) -> None:
        """Register a node; its name must be unique."""
        if node.name in self._nodes:
            raise NetworkError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def node_names(self) -> List[str]:
        """All registered node names."""
        return list(self._nodes)

    def fail_node(self, name: str) -> None:
        """Take a node down: it no longer receives messages."""
        self.node(name)  # validate
        self._failed.add(name)

    def recover_node(self, name: str) -> None:
        """Bring a failed node back."""
        self._failed.discard(name)

    def is_failed(self, name: str) -> bool:
        """True if the node is currently down."""
        return name in self._failed

    # ------------------------------------------------------------------
    # Messaging

    def post(self, message: Message) -> None:
        """Enqueue a message for delivery on the next :meth:`run` drain."""
        self._queue.append(message)

    def send(
        self,
        sender: str,
        recipient: str,
        kind: str,
        fragments: int = 1,
        size_bytes: int = 0,
        **payload: Any,
    ) -> None:
        """Convenience wrapper around :meth:`post`.

        ``fragments`` and ``size_bytes`` are the sizing contract (see
        :class:`Message`); protocol payload keys must not collide with
        either name.
        """
        self.post(
            Message(sender, recipient, kind, payload, fragments, size_bytes)
        )

    def run(self, max_messages: int = 1_000_000) -> int:
        """Drain the queue; returns the number of *attempted* deliveries.

        ``max_messages`` bounds runaway protocols (a protocol bug would
        otherwise loop forever); exceeding it raises
        :class:`~repro.errors.NetworkError`.

        A message dropped in flight — addressed to a failed node under
        ``drop_to_failed``, or dropped by the injector — counts toward
        the return value (the sender attempted it) but leaves the
        accounting counters untouched: the clock, message counter,
        byte total, and kind counts only reflect actual deliveries.
        """
        delivered = 0
        while self._queue:
            if delivered >= max_messages:
                raise NetworkError(
                    f"message budget exceeded ({max_messages}); "
                    "protocol is likely looping"
                )
            message = self._queue.popleft()
            delivered += 1
            extra_latency = 0.0
            if self.injector is not None and not message.injected:
                action, extra_latency = self.injector.intercept(message)
                if action == "drop":
                    continue
                if action == "duplicate":
                    copy = Message(
                        message.sender,
                        message.recipient,
                        message.kind,
                        message.payload,
                        message.fragments,
                        message.size_bytes,
                        injected=True,
                    )
                    self._queue.append(copy)
            if message.recipient in self._failed:
                if self._drop_to_failed:
                    continue
                raise NetworkError(
                    f"message {message} addressed to failed node"
                )
            self.messages_delivered += message.fragments
            self.bytes_delivered += message.wire_bytes()
            self.simulated_seconds += (
                self._latency * message.fragments + extra_latency
            )
            self.kind_counts[message.kind] = (
                self.kind_counts.get(message.kind, 0) + message.fragments
            )
            self.kind_bytes[message.kind] = (
                self.kind_bytes.get(message.kind, 0) + message.wire_bytes()
            )
            self.node(message.recipient).handle(self, message)
        return delivered
