"""End-to-end replay of the paper's Figures 1-2, over every store.

This is the repository's correctness reference: the four-epoch worked
example must produce exactly the instances and deferred sets printed in
Figure 2, no matter which update store carries the transactions.
"""

from __future__ import annotations

import pytest

from repro.cdss import CDSS
from repro.core import Resolution
from repro.model import Insert, Modify
from repro.policy import policy_from_priorities
from repro.store import DhtUpdateStore, MemoryUpdateStore, create_store


RAT_METAB = ("rat", "prot1", "cell-metab")
RAT_IMMUNE = ("rat", "prot1", "immune")
RAT_RESP = ("rat", "prot1", "cell-resp")
MOUSE = ("mouse", "prot2", "immune")


@pytest.fixture(params=["memory", "central", "dht"])
def cdss(request, schema):
    if request.param == "memory":
        yield CDSS(MemoryUpdateStore(schema))
    elif request.param == "central":
        with create_store("central", schema) as store:
            yield CDSS(store)
    else:
        yield CDSS(DhtUpdateStore(schema, hosts=3))


def build_figure1_topology(cdss):
    p1 = cdss.add_participant(1, policy_from_priorities([(2, 1), (3, 1)]))
    p2 = cdss.add_participant(2, policy_from_priorities([(1, 2), (3, 1)]))
    p3 = cdss.add_participant(3, policy_from_priorities([(2, 1)]))
    return p1, p2, p3


def run_figure2_epochs(p1, p2, p3):
    # Epoch 1: p3's insert and revision.
    p3.execute([Insert("F", RAT_METAB, 3)])
    p3.execute([Modify("F", RAT_METAB, RAT_IMMUNE, 3)])
    p3.publish_and_reconcile()
    # Epoch 2: p2's two inserts.
    p2.execute([Insert("F", MOUSE, 2)])
    p2.execute([Insert("F", RAT_RESP, 2)])
    epoch2 = p2.publish_and_reconcile()
    # Epoch 3: p3 reconciles again.
    epoch3 = p3.publish_and_reconcile()
    # Epoch 4: p1 reconciles.
    epoch4 = p1.publish_and_reconcile()
    return epoch2, epoch3, epoch4


class TestFigure2EndToEnd:
    def test_all_four_epochs(self, cdss):
        p1, p2, p3 = build_figure1_topology(cdss)
        result2, result3, result4 = run_figure2_epochs(p1, p2, p3)

        # Epoch 2: p2 rejects p3's rat chain, keeps its own state.
        assert sorted(map(str, result2.rejected)) == ["X3:0", "X3:1"]
        assert p2.instance.snapshot()["F"] == {
            ("mouse", "prot2"): MOUSE,
            ("rat", "prot1"): RAT_RESP,
        }

        # Epoch 3: p3 accepts the mouse tuple, rejects the rat tuple.
        assert sorted(map(str, result3.accepted)) == ["X2:0"]
        assert sorted(map(str, result3.rejected)) == ["X2:1"]
        assert p3.instance.snapshot()["F"] == {
            ("mouse", "prot2"): MOUSE,
            ("rat", "prot1"): RAT_IMMUNE,
        }

        # Epoch 4: p1 accepts mouse, defers the three rat transactions.
        assert sorted(map(str, result4.accepted)) == ["X2:0"]
        assert sorted(map(str, result4.deferred)) == ["X2:1", "X3:0", "X3:1"]
        assert p1.instance.snapshot()["F"] == {("mouse", "prot2"): MOUSE}

        # The figure's conflict group: three options at the rat key.
        [group] = p1.open_conflicts()
        assert group.key == ("F", ("rat", "prot1"))
        assert len(group.options) == 3

    def test_resolution_after_figure2(self, cdss):
        p1, p2, p3 = build_figure1_topology(cdss)
        run_figure2_epochs(p1, p2, p3)
        [group] = p1.open_conflicts()
        immune = next(
            i for i, opt in enumerate(group.options) if opt.effect == RAT_IMMUNE
        )
        p1.resolve([Resolution(group.group_id, immune)])
        assert p1.instance.snapshot()["F"] == {
            ("mouse", "prot2"): MOUSE,
            ("rat", "prot1"): RAT_IMMUNE,
        }
        assert p1.open_conflicts() == []
        # The resolution decisions reached the store: a follow-up
        # reconciliation delivers nothing stale.
        follow_up = p1.publish_and_reconcile()
        assert follow_up.accepted == []
        assert follow_up.deferred == []

    def test_state_ratio_reflects_figure2_divergence(self, cdss):
        p1, p2, p3 = build_figure1_topology(cdss)
        run_figure2_epochs(p1, p2, p3)
        # mouse key: all agree (p1, p2, p3 share it); rat key: p1 absent,
        # p2 has cell-resp, p3 has immune -> 3 states.
        ratio = cdss.state_ratio()
        assert ratio == pytest.approx((1 + 3) / 2)


class TestSection42Scenario:
    def test_revision_unblocks_conflicting_import(self, cdss):
        """Section 4.2's X3:2/X3:3: a revised-away insert must not block
        importing another peer's insert at the vacated key."""
        p1, p2, p3 = build_figure1_topology(cdss)
        p3.execute([Insert("F", ("mouse", "prot2", "cell-resp"), 3)])
        p3.execute(
            [
                Modify(
                    "F",
                    ("mouse", "prot2", "cell-resp"),
                    ("mouse", "prot3", "cell-resp"),
                    3,
                )
            ]
        )
        p3.publish()
        p2.execute([Insert("F", MOUSE, 2)])
        p2.publish_and_reconcile()
        result = p3.reconcile()
        assert len(result.accepted) == 1
        assert p3.instance.contains_row("F", MOUSE)
        assert p3.instance.contains_row("F", ("mouse", "prot3", "cell-resp"))
