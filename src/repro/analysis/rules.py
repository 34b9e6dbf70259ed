"""The repo-specific lint rules (``RPR001``–``RPR010``).

Each rule encodes one invariant of the verification spine — the
properties the store-equivalence matrix and the chaos suite rely on but
could previously only catch *after* they broke a decision stream:

=======  ==============================================================
RPR001   No ``isinstance``/``type()`` checks against store classes
         outside ``store/`` — route on ``batch.capabilities``.
RPR002   No module-level ``random.*`` RNG and no argless
         ``random.Random()`` — seeded substreams only.
RPR003   No wall-clock reads in ``core/``/``store/`` decision paths —
         simulated latency goes through ``pay_latency``.
RPR004   No direct store-method calls in ``cdss/`` outside
         ``_store_call`` — the transport holds the store lock.
RPR005   Hook events are dispatched through the bus with known names —
         a literal ``emit`` of an unknown event silently no-ops, and
         poking ``_handlers`` bypasses the serialized dispatch.
RPR006   Shared memo internals (``._entries``) are mutated only by
         their lock-holding helpers in ``core/cache.py``.
RPR007   No iteration over set expressions feeding ordered output —
         wrap in ``sorted(...)`` so decision-adjacent order is stable.
RPR008   ``@dataclass`` classes with ``to_dict``/``from_dict`` keep the
         dict keys in exact parity with their fields.
RPR009   Message kinds passed to ``Network.send`` and handled by
         ``_on_<kind>`` methods come from the module-level ``KINDS``
         registry — a typo'd kind silently burns the retry budget.
RPR010   No direct ``time.sleep`` outside the
         :class:`~repro.net.clock.LatencyClock` implementations
         (``net/clock.py``) — a blocking sleep on the async schedule
         stalls the whole event loop; pay latency through the clock.
=======  ==============================================================

Rules deliberately prefer *precision* over recall: each one flags only
patterns it can judge statically with no false positives on the real
tree, and the fixture suite (``tests/analysis/fixtures``) proves every
rule still fires.  Genuinely intended exceptions carry
``# repro: allow[RPRnnn]`` at the site, so the waiver is visible in
review next to its justification.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import Finding, ModuleContext, Rule
from repro.confed.hooks import EVENTS as HOOK_EVENTS

#: Concrete update-store classes the engine must never type-switch on.
STORE_CLASS_NAMES: Tuple[str, ...] = (
    "UpdateStore",
    "MemoryUpdateStore",
    "DurableUpdateStore",
    "DhtUpdateStore",
    "NetworkCentricMixin",
)

#: Wall-clock reads that would make a decision path time-dependent.
WALL_CLOCK_ATTRS: Tuple[str, ...] = (
    "time",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "time_ns",
)

#: Mutating methods of the memo mapping that must stay behind the lock
#: helpers in ``core/cache.py``.
MEMO_MUTATORS: Tuple[str, ...] = (
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
)


def _walk_with_function_stack(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, Tuple[str, ...]]]:
    """Yield ``(node, enclosing function names)`` over the whole tree."""

    def visit(node: ast.AST, stack: Tuple[str, ...]) -> Iterator:
        """Recurse, yielding each node with its enclosing-function stack."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, stack
                yield from visit(child, stack + (child.name,))
            else:
                yield child, stack
                yield from visit(child, stack)

    yield from visit(tree, ())


class StoreTypeCheckRule(Rule):
    """RPR001: route on capabilities, never on store classes."""

    code = "RPR001"
    name = "store-type-check"
    summary = (
        "isinstance/type() check against a store class outside store/ — "
        "route on batch.capabilities instead"
    )

    def applies(self, context: ModuleContext) -> bool:
        """src/ modules outside store/ — the engine side of the seam."""
        return context.realm == "src" and context.subpackage != "store"

    def check(self, tree: ast.Module, context: ModuleContext) -> Iterator[Finding]:
        """Flag isinstance/type() switches on imported store classes."""
        imported: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "repro.store" or module.startswith("repro.store."):
                    for alias in node.names:
                        name = alias.asname or alias.name
                        if name in STORE_CLASS_NAMES or alias.name in STORE_CLASS_NAMES:
                            imported.add(name)
        if not imported:
            return
        for node in ast.walk(tree):
            target = self._type_switch_target(node, imported)
            if target is not None:
                yield super().finding(
                    context,
                    node,
                    f"type check against store class {target!r}; the "
                    f"engine routes on batch.capabilities, never on "
                    f"concrete store types",
                )

    @staticmethod
    def _type_switch_target(node: ast.AST, imported: Set[str]) -> Optional[str]:
        """The store class a type switch targets, if ``node`` is one."""

        def named(expr: ast.AST) -> Optional[str]:
            """The imported store-class name ``expr`` references, if any."""
            if isinstance(expr, ast.Name) and expr.id in imported:
                return expr.id
            return None

        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "isinstance" and len(node.args) == 2:
                second = node.args[1]
                candidates = (
                    second.elts
                    if isinstance(second, (ast.Tuple, ast.List))
                    else [second]
                )
                for candidate in candidates:
                    name = named(candidate)
                    if name:
                        return name
        if isinstance(node, ast.Compare):
            # type(x) is StoreClass  /  type(x) == StoreClass
            sides = [node.left, *node.comparators]
            has_type_call = any(
                isinstance(side, ast.Call)
                and isinstance(side.func, ast.Name)
                and side.func.id == "type"
                for side in sides
            )
            if has_type_call:
                for side in sides:
                    name = named(side)
                    if name:
                        return name
        return None


class UnseededRandomRule(Rule):
    """RPR002: every RNG is an explicitly seeded substream."""

    code = "RPR002"
    name = "unseeded-random"
    summary = (
        "module-level random.* or argless random.Random() — use an "
        "explicitly seeded random.Random(seed) substream"
    )

    REALMS = frozenset({"src", "examples", "benchmarks"})

    def applies(self, context: ModuleContext) -> bool:
        """Everything seeded is in scope: src/, examples/, benchmarks/."""
        return context.realm in self.REALMS

    def check(self, tree: ast.Module, context: ModuleContext) -> Iterator[Finding]:
        """Flag shared-RNG draws and argless ``random.Random()``."""
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [a.name for a in node.names if a.name != "Random"]
                if bad:
                    yield super().finding(
                        context,
                        node,
                        f"importing {', '.join(bad)} from random pulls the "
                        f"shared module-level RNG; import Random and seed a "
                        f"substream",
                    )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
            ):
                if func.attr == "Random":
                    if not node.args and not node.keywords:
                        yield super().finding(
                            context,
                            node,
                            "argless random.Random() seeds from the OS — "
                            "pass an explicit seed so runs reproduce",
                        )
                else:
                    yield super().finding(
                        context,
                        node,
                        f"random.{func.attr}() draws from the shared "
                        f"module-level RNG; use a seeded "
                        f"random.Random(seed) substream",
                    )


class WallClockRule(Rule):
    """RPR003: decision paths never read the wall clock."""

    code = "RPR003"
    name = "wall-clock-in-decision-path"
    summary = (
        "wall-clock read in core/ or store/ — simulated latency goes "
        "through PerfCounters and pay_latency"
    )

    SUBPACKAGES = frozenset({"core", "store"})

    def applies(self, context: ModuleContext) -> bool:
        """Decision-path subpackages only: core/ and store/."""
        return context.realm == "src" and context.subpackage in self.SUBPACKAGES

    def check(self, tree: ast.Module, context: ModuleContext) -> Iterator[Finding]:
        """Flag wall-clock reads (``time.*``, ``datetime.now``, ...)."""
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = [a.name for a in node.names if a.name in WALL_CLOCK_ATTRS]
                if bad:
                    yield super().finding(
                        context,
                        node,
                        f"importing {', '.join(bad)} from time into a "
                        f"decision-path module",
                    )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in WALL_CLOCK_ATTRS
            ):
                yield super().finding(
                    context,
                    node,
                    f"time.{func.attr}() in a decision path makes outcomes "
                    f"time-dependent; charge simulated latency via "
                    f"PerfCounters and pay it through pay_latency",
                )
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("now", "utcnow", "today")
                and isinstance(func.value, ast.Name)
                and func.value.id in ("datetime", "date")
            ):
                yield super().finding(
                    context,
                    node,
                    f"{func.value.id}.{func.attr}() reads the wall clock in "
                    f"a decision path",
                )


class DirectStoreCallRule(Rule):
    """RPR004: the cdss transport reaches the store only via _store_call."""

    code = "RPR004"
    name = "store-call-outside-lock"
    summary = (
        "direct store method call in cdss/ outside _store_call — the "
        "transport must hold the store lock"
    )

    def applies(self, context: ModuleContext) -> bool:
        """The transport layer: src/repro/cdss."""
        return context.realm == "src" and context.subpackage == "cdss"

    @staticmethod
    def _exempt(stack: Tuple[str, ...]) -> bool:
        """Calls inside ``_store_call`` itself are the mechanism, and
        the ``*_locked`` naming convention marks helper callables that
        are only ever *executed through* ``_store_call`` (so the lock is
        held when their body runs)."""
        return any(
            name == "_store_call" or name.endswith("_locked") for name in stack
        )

    def check(self, tree: ast.Module, context: ModuleContext) -> Iterator[Finding]:
        """Flag ``.store.method(...)`` calls outside ``_store_call``."""
        for node, stack in _walk_with_function_stack(tree):
            if self._exempt(stack):
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            value = func.value
            is_store_attr = (
                isinstance(value, ast.Attribute) and value.attr == "store"
            )
            is_store_name = isinstance(value, ast.Name) and value.id == "store"
            if is_store_attr or is_store_name:
                yield super().finding(
                    context,
                    node,
                    f"direct store call .store.{func.attr}(...) bypasses "
                    f"_store_call — the store lock and perf accounting "
                    f"are skipped",
                )


class HookEventRule(Rule):
    """RPR005: events go through the bus, under known names."""

    code = "RPR005"
    name = "hook-event-dispatch"
    summary = (
        "emit of an unknown hook event (silent no-op) or direct "
        "_handlers access bypassing serialized dispatch"
    )

    def applies(self, context: ModuleContext) -> bool:
        """All src/ modules."""
        return context.realm == "src"

    def check(self, tree: ast.Module, context: ModuleContext) -> Iterator[Finding]:
        """Flag unknown event names and ``_handlers`` pokes."""
        in_hooks_module = context.in_module("confed/hooks.py")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("emit", "_emit")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and node.args[0].value not in HOOK_EVENTS
            ):
                yield super().finding(
                    context,
                    node,
                    f"emit of unknown hook event {node.args[0].value!r} — "
                    f"HookBus.emit silently no-ops on unknown names; known "
                    f"events: {', '.join(HOOK_EVENTS)}",
                )
            if (
                not in_hooks_module
                and isinstance(node, ast.Attribute)
                and node.attr == "_handlers"
            ):
                yield super().finding(
                    context,
                    node,
                    "direct access to HookBus._handlers bypasses the "
                    "serialized, subscription-ordered dispatch",
                )


class MemoMutationRule(Rule):
    """RPR006: memo internals mutate only inside their lock helpers."""

    code = "RPR006"
    name = "memo-mutation-outside-lock"
    summary = (
        "mutation of a memo's ._entries outside core/cache.py — shared "
        "memos are mutated only by their lock-holding helpers"
    )

    def applies(self, context: ModuleContext) -> bool:
        """Everywhere except the memos' own module, core/cache.py."""
        return not context.in_module("core/cache.py")

    def check(self, tree: ast.Module, context: ModuleContext) -> Iterator[Finding]:
        """Flag writes, deletes, and mutator calls on a ``._entries``."""
        def is_entries_attr(expr: ast.AST) -> bool:
            """True when ``expr`` is an ``._entries`` attribute access."""
            return isinstance(expr, ast.Attribute) and expr.attr == "_entries"

        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript) and is_entries_attr(
                        target.value
                    ):
                        yield super().finding(
                            context,
                            node,
                            "writing into ._entries outside core/cache.py "
                            "races the memo's internal lock",
                        )
            if isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and is_entries_attr(
                        target.value
                    ):
                        yield super().finding(
                            context,
                            node,
                            "deleting from ._entries outside core/cache.py "
                            "races the memo's internal lock",
                        )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MEMO_MUTATORS
                and is_entries_attr(node.func.value)
            ):
                yield super().finding(
                    context,
                    node,
                    f"._entries.{node.func.attr}(...) outside core/cache.py "
                    f"races the memo's internal lock",
                )


class SetIterationRule(Rule):
    """RPR007: ordered output never iterates a raw set expression."""

    code = "RPR007"
    name = "unordered-set-iteration"
    summary = (
        "iteration over a set expression — set order is arbitrary; wrap "
        "in sorted(...) when the result feeds ordered decision output"
    )

    SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

    def applies(self, context: ModuleContext) -> bool:
        """All src/ modules."""
        return context.realm == "src"

    @classmethod
    def _is_set_expression(cls, expr: ast.AST) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset")
        ):
            return True
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, cls.SET_OPS):
            return cls._is_set_expression(expr.left) or cls._is_set_expression(
                expr.right
            )
        return False

    @staticmethod
    def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
        """Nodes belonging to ``scope``, not descending into nested
        function bodies (each function is its own dataflow scope)."""
        for child in ast.iter_child_nodes(scope):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield child
            yield from SetIterationRule._scope_nodes(child)

    def check(self, tree: ast.Module, context: ModuleContext) -> Iterator[Finding]:
        """Flag for/comprehension iteration over set-valued expressions."""
        # A light local-dataflow pass per scope: names assigned a set
        # expression count as set-valued for iteration checks in that
        # same scope (re-assignment to a non-set clears them).
        scopes: List[ast.AST] = [tree]
        scopes.extend(
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            nodes = list(self._scope_nodes(scope))
            set_names: Set[str] = set()
            for stmt in nodes:
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    if isinstance(target, ast.Name):
                        if self._is_set_expression(stmt.value):
                            set_names.add(target.id)
                        else:
                            set_names.discard(target.id)
            iters: List[ast.AST] = []
            for stmt in nodes:
                if isinstance(stmt, ast.For):
                    iters.append(stmt.iter)
                elif isinstance(
                    stmt, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
                ):
                    iters.extend(gen.iter for gen in stmt.generators)
            for candidate in iters:
                named_set = (
                    isinstance(candidate, ast.Name) and candidate.id in set_names
                )
                if self._is_set_expression(candidate) or named_set:
                    yield super().finding(
                        context,
                        candidate,
                        "iterating a set expression yields arbitrary "
                        "order; wrap in sorted(...) so downstream "
                        "output is deterministic",
                    )


class DictRoundTripRule(Rule):
    """RPR008: to_dict keys stay in parity with dataclass fields."""

    code = "RPR008"
    name = "dict-roundtrip-parity"
    summary = (
        "to_dict() keys of a @dataclass with from_dict() must exactly "
        "match its field names — drift breaks the exact round-trip"
    )

    def applies(self, context: ModuleContext) -> bool:
        """All src/ modules."""
        return context.realm == "src"

    def check(self, tree: ast.Module, context: ModuleContext) -> Iterator[Finding]:
        """Flag to_dict()/field drift on round-trippable dataclasses."""
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_dataclass(node):
                continue
            methods = {
                stmt.name: stmt
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            to_dict = methods.get("to_dict")
            if to_dict is None or "from_dict" not in methods:
                continue
            fields = self._field_names(node)
            keys = self._to_dict_keys(to_dict)
            if fields is None or keys is None:
                continue
            missing = fields - keys
            extra = keys - fields
            if missing or extra:
                detail = []
                if missing:
                    detail.append(f"missing keys: {sorted(missing)}")
                if extra:
                    detail.append(f"extra keys: {sorted(extra)}")
                yield super().finding(
                    context,
                    to_dict,
                    f"{node.name}.to_dict() keys drift from the dataclass "
                    f"fields ({'; '.join(detail)}); from_dict(to_dict(x)) "
                    f"cannot round-trip exactly",
                )

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            name = decorator
            if isinstance(decorator, ast.Call):
                name = decorator.func
            if isinstance(name, ast.Name) and name.id == "dataclass":
                return True
            if isinstance(name, ast.Attribute) and name.attr == "dataclass":
                return True
        return False

    @staticmethod
    def _field_names(node: ast.ClassDef) -> Optional[Set[str]]:
        names: Set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                name = stmt.target.id
                annotation = ast.unparse(stmt.annotation)
                if name.startswith("_") or "ClassVar" in annotation:
                    continue
                names.add(name)
        return names or None

    @staticmethod
    def _to_dict_keys(func: ast.FunctionDef) -> Optional[Set[str]]:
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Dict):
                keys: Set[str] = set()
                for key in stmt.value.keys:
                    if not (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    ):
                        return None  # computed keys: not statically checkable
                    keys.add(key.value)
                return keys
        return None


class KindsRegistryRule(Rule):
    """RPR009: message kinds come from the module's KINDS registry."""

    code = "RPR009"
    name = "message-kind-registry"
    summary = (
        "message kinds passed to Network.send and handled by "
        "_on_<kind> methods must come from the module-level KINDS "
        "registry — a typo'd kind silently produces an unanswered "
        "request that burns the whole retry budget"
    )

    def applies(self, context: ModuleContext) -> bool:
        """All src/ modules."""
        return context.realm == "src"

    @staticmethod
    def _declared_kinds(tree: ast.Module) -> Optional[Set[str]]:
        """String members of a module-level ``KINDS = frozenset({...})``
        (or any literal collection), or None when undeclared."""
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and target.id == "KINDS":
                    return {
                        literal.value
                        for literal in ast.walk(node.value)
                        if isinstance(literal, ast.Constant)
                        and isinstance(literal.value, str)
                    }
        return None

    @staticmethod
    def _send_kind(node: ast.AST) -> Optional[ast.Constant]:
        """The literal kind of a ``....send(sender, recipient, kind)``
        call (third positional or ``kind=``), else None."""
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "send"
        ):
            return None
        candidate: Optional[ast.AST] = None
        if len(node.args) >= 3:
            candidate = node.args[2]
        for keyword in node.keywords:
            if keyword.arg == "kind":
                candidate = keyword.value
        if isinstance(candidate, ast.Constant) and isinstance(
            candidate.value, str
        ):
            return candidate
        return None

    def check(self, tree: ast.Module, context: ModuleContext) -> Iterator[Finding]:
        """Flag literal kinds missing from the module's KINDS registry."""
        # Engage only for modules that actually speak the wire protocol
        # (at least one literal-kind send) — hook-bus subscribers also
        # name methods ``_on_<event>`` and must not be swept in.
        sends = [
            kind_node
            for node in ast.walk(tree)
            if (kind_node := self._send_kind(node)) is not None
        ]
        if not sends:
            return
        declared = self._declared_kinds(tree)
        if declared is None:
            for kind_node in sends:
                yield super().finding(
                    context,
                    kind_node,
                    f"message kind {kind_node.value!r} is sent but the "
                    f"module declares no KINDS registry to check it "
                    f"against",
                )
            return
        for kind_node in sends:
            if kind_node.value not in declared:
                yield super().finding(
                    context,
                    kind_node,
                    f"message kind {kind_node.value!r} is not in the "
                    f"module's KINDS registry — a typo here burns the "
                    f"whole retry budget before surfacing",
                )
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_on_")
                and node.name[4:]
                and node.name[4:] not in declared
            ):
                yield super().finding(
                    context,
                    node,
                    f"handler {node.name}() matches no kind in the "
                    f"module's KINDS registry — it can never be "
                    f"dispatched",
                )


class BlockingSleepRule(Rule):
    """RPR010: latency is paid through a LatencyClock, never slept."""

    code = "RPR010"
    name = "blocking-sleep-outside-clock"
    summary = (
        "direct time.sleep outside the LatencyClock implementations — "
        "a blocking sleep stalls the async scheduler's event loop; pay "
        "latency through the store's clock (pay_latency)"
    )

    def applies(self, context: ModuleContext) -> bool:
        """Everywhere except the clocks' own module, net/clock.py."""
        return not context.in_module("net/clock.py")

    def check(self, tree: ast.Module, context: ModuleContext) -> Iterator[Finding]:
        """Flag ``time.sleep(...)`` calls and ``from time import sleep``."""
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                if any(alias.name == "sleep" for alias in node.names):
                    yield super().finding(
                        context,
                        node,
                        "importing sleep from time invites blocking waits "
                        "outside the LatencyClock seam; pay latency "
                        "through the store's clock instead",
                    )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sleep"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "time"
            ):
                yield super().finding(
                    context,
                    node,
                    "time.sleep() outside net/clock.py blocks the calling "
                    "thread — under the async schedule that stalls the "
                    "whole event loop; charge the latency to PerfCounters "
                    "and pay it through the store's LatencyClock",
                )


def default_rules() -> List[Rule]:
    """One instance of every shipped rule, in code order."""
    return [
        StoreTypeCheckRule(),
        UnseededRandomRule(),
        WallClockRule(),
        DirectStoreCallRule(),
        HookEventRule(),
        MemoMutationRule(),
        SetIterationRule(),
        DictRoundTripRule(),
        KindsRegistryRule(),
        BlockingSleepRule(),
    ]


#: code → rule class, for ``--select`` validation and the docs.
RULES_BY_CODE: Dict[str, type] = {
    rule.code: type(rule) for rule in default_rules()
}
