"""Tests for phased ping-list generation and activation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.core.pinglist import PingList, PingListPhase, ProbePair


def ep(rank, slot=0, task=0):
    return EndpointId(ContainerId(TaskId(task), rank), slot)


def make_endpoints(num_containers=4, slots=4):
    return [
        ep(rank, slot)
        for rank in range(num_containers)
        for slot in range(slots)
    ]


def rail_of(endpoint):
    return endpoint.slot  # slot == rail on standard hosts


class TestProbePair:
    def test_canonical_is_order_insensitive(self):
        assert ProbePair.canonical(ep(1), ep(0)) == ProbePair.canonical(
            ep(0), ep(1)
        )

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            ProbePair.canonical(ep(0), ep(0))

    def test_other(self):
        pair = ProbePair.canonical(ep(0), ep(1))
        assert pair.other(pair.src) == pair.dst
        assert pair.other(pair.dst) == pair.src
        with pytest.raises(ValueError):
            pair.other(ep(9))


class TestFullMesh:
    def test_counts_cross_container_pairs(self):
        endpoints = make_endpoints(4, 4)  # 16 endpoints
        mesh = PingList.full_mesh(endpoints)
        # C(16,2)=120 minus C(4,2)*4=24 intra-container pairs... each
        # container holds 4 endpoints -> C(4,2)=6 intra pairs x 4 = 24.
        assert len(mesh) == 120 - 24
        assert mesh.phase == PingListPhase.FULL_MESH

    def test_no_intra_container_pairs(self):
        mesh = PingList.full_mesh(make_endpoints(3, 2))
        for pair in mesh.pairs:
            assert pair.src.container != pair.dst.container


class TestBasic:
    def test_rail_pruning_factor(self):
        endpoints = make_endpoints(4, 4)
        mesh = PingList.full_mesh(endpoints)
        basic = PingList.basic(endpoints, rail_of)
        assert len(basic) * 4 == len(mesh)

    def test_all_pairs_same_rail(self):
        basic = PingList.basic(make_endpoints(4, 4), rail_of)
        for pair in basic.pairs:
            assert rail_of(pair.src) == rail_of(pair.dst)

    def test_single_container_yields_empty_list(self):
        basic = PingList.basic(make_endpoints(1, 4), rail_of)
        assert len(basic) == 0


class TestSkeletonRestriction:
    def test_restrict_keeps_only_edges(self):
        endpoints = make_endpoints(4, 2)
        basic = PingList.basic(endpoints, rail_of)
        edges = [frozenset((ep(0, 0), ep(1, 0))),
                 frozenset((ep(1, 0), ep(2, 0)))]
        skeleton = basic.restrict_to(edges)
        assert len(skeleton) == 2
        assert skeleton.phase == PingListPhase.SKELETON

    def test_restrict_preserves_registration(self):
        endpoints = make_endpoints(3, 1)
        basic = PingList.basic(endpoints, rail_of)
        basic.register(ContainerId(TaskId(0), 0))
        basic.register(ContainerId(TaskId(0), 1))
        skeleton = basic.restrict_to(
            [frozenset((ep(0, 0), ep(1, 0)))]
        )
        assert skeleton.activation_ratio() == 1.0

    def test_from_edges(self):
        edges = [frozenset((ep(0), ep(1)))]
        ping_list = PingList.from_edges(edges)
        assert len(ping_list) == 1

    def test_from_edges_rejects_non_pairs(self):
        with pytest.raises(ValueError):
            PingList.from_edges([frozenset((ep(0),))])


class TestActivation:
    def test_pairs_inactive_until_both_register(self):
        basic = PingList.basic(make_endpoints(2, 1), rail_of)
        pair = next(iter(basic.pairs))
        assert not basic.is_active(pair)
        basic.register(pair.src.container)
        assert not basic.is_active(pair)
        basic.register(pair.dst.container)
        assert basic.is_active(pair)

    def test_activation_ratio_grows_with_registration(self):
        endpoints = make_endpoints(4, 1)
        basic = PingList.basic(endpoints, rail_of)
        ratios = [basic.activation_ratio()]
        for rank in range(4):
            basic.register(ContainerId(TaskId(0), rank))
            ratios.append(basic.activation_ratio())
        assert ratios == sorted(ratios)
        assert ratios[0] == 0.0
        assert ratios[-1] == 1.0

    def test_deregister_deactivates(self):
        basic = PingList.basic(make_endpoints(2, 1), rail_of)
        for rank in (0, 1):
            basic.register(ContainerId(TaskId(0), rank))
        basic.deregister(ContainerId(TaskId(0), 1))
        assert basic.active_pairs() == []

    def test_empty_list_ratio_zero(self):
        assert PingList().activation_ratio() == 0.0

    def test_targets_of(self):
        endpoints = make_endpoints(3, 1)
        basic = PingList.basic(endpoints, rail_of)
        targets = basic.targets_of(ep(0, 0))
        assert targets == [ep(1, 0), ep(2, 0)]


def container(rank):
    return ContainerId(TaskId(0), rank)


def sources_of(rank, slots=4):
    return [ep(rank, slot) for slot in range(slots)]


def old_pairs_from(ping_list, sources):
    """The selection before the index: filter the sorted active pairs."""
    mine = set(sources)
    active = sorted(p for p in ping_list.pairs if ping_list.is_active(p))
    return [pair for pair in active if pair.src in mine]


class TestActiveIndex:
    def make(self, num_containers=4, slots=4):
        ping_list = PingList.full_mesh(make_endpoints(num_containers, slots))
        for rank in range(num_containers):
            ping_list.register(container(rank))
        return ping_list

    def test_pairs_is_frozenset(self):
        ping_list = PingList(pairs={ProbePair(ep(0), ep(1))})
        assert isinstance(ping_list.pairs, frozenset)
        assert isinstance(PingList().pairs, frozenset)
        assert isinstance(self.make().pairs, frozenset)

    def test_repeat_selection_sorts_nothing(self, comparisons):
        ping_list = self.make()
        first = ping_list.active_pairs()
        assert comparisons  # the index is built once, by sorting
        comparisons.clear()
        for _ in range(3):
            assert ping_list.active_pairs() == first
            for rank in range(4):
                ping_list.active_pairs_from(sources_of(rank))
            ping_list.activation_ratio()
        assert comparisons == []

    def test_active_pairs_returns_a_fresh_list(self):
        ping_list = self.make()
        ping_list.active_pairs().clear()
        ping_list.active_pairs_from(sources_of(0)).clear()
        assert len(ping_list.active_pairs()) == len(ping_list)
        assert ping_list.active_pairs_from(sources_of(0))

    def test_register_new_container_activates_its_pairs(self):
        ping_list = self.make(num_containers=5)
        ping_list.deregister(container(4))
        before = ping_list.active_pairs()
        ping_list.register(container(4))
        after = ping_list.active_pairs()
        assert len(after) == len(ping_list) > len(before)
        for rank in range(5):
            assert ping_list.active_pairs_from(sources_of(rank)) == (
                old_pairs_from(ping_list, sources_of(rank))
            )

    def test_deregister_drops_its_pairs(self):
        ping_list = self.make()
        ping_list.active_pairs()
        ping_list.deregister(container(2))
        assert all(
            container(2) not in (p.src.container, p.dst.container)
            for p in ping_list.active_pairs()
        )
        assert ping_list.active_pairs_from(sources_of(2)) == []
        assert ping_list.active_pairs_from(sources_of(0)) == (
            old_pairs_from(ping_list, sources_of(0))
        )

    def test_reregistering_keeps_the_index(self, comparisons):
        ping_list = self.make()
        first = ping_list.active_pairs()
        comparisons.clear()
        ping_list.register(container(1))
        ping_list.deregister(container(9))  # never registered
        assert ping_list.active_pairs() == first
        assert comparisons == []

    def test_restrict_to_selects_from_the_restricted_pairs(self):
        ping_list = self.make()
        ping_list.active_pairs()
        edges = [frozenset((ep(0, 0), ep(1, 0))),
                 frozenset((ep(0, 1), ep(2, 3))),
                 frozenset((ep(1, 2), ep(3, 2)))]
        skeleton = ping_list.restrict_to(edges)
        assert skeleton.active_pairs() == sorted(
            ProbePair.canonical(*sorted(edge)) for edge in edges
        )
        assert skeleton.active_pairs_from(sources_of(0)) == [
            ProbePair(ep(0, 0), ep(1, 0)), ProbePair(ep(0, 1), ep(2, 3)),
        ]
        assert len(ping_list.active_pairs()) == len(ping_list)

    def test_reassigning_pairs_rebuilds_the_index(self):
        ping_list = self.make()
        ping_list.active_pairs()
        extra = ProbePair(ep(0, 0), ep(9, 0))
        ping_list.register(container(9))
        ping_list.pairs = ping_list.pairs | {extra}
        assert isinstance(ping_list.pairs, frozenset)
        assert extra in ping_list.active_pairs()
        assert extra in ping_list.active_pairs_from(sources_of(0))
        ping_list.pairs = ping_list.pairs - {extra}
        assert extra not in ping_list.active_pairs()
        assert extra not in ping_list.active_pairs_from(sources_of(0))


#: One step of a registration history: (op, container rank).
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["register", "deregister", "restrict", "select"]),
        st.integers(min_value=0, max_value=4),
    ),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(steps=_STEPS, mesh=st.booleans())
def test_index_matches_the_sorted_filter(steps, mesh):
    endpoints = make_endpoints(5, 3)
    ping_list = (
        PingList.full_mesh(endpoints) if mesh
        else PingList.basic(endpoints, rail_of)
    )
    for op, rank in steps:
        if op == "register":
            ping_list.register(container(rank))
        elif op == "deregister":
            ping_list.deregister(container(rank))
        elif op == "restrict":
            # Drop every pair that touches slot ``rank`` (mod 3).
            ping_list = ping_list.restrict_to(
                frozenset((p.src, p.dst)) for p in ping_list.pairs
                if rank % 3 not in (p.src.slot, p.dst.slot)
            )
        per_source = [
            ping_list.active_pairs_from(sources_of(r, slots=3))
            for r in range(5)
        ]
        for r, mine in enumerate(per_source):
            assert mine == old_pairs_from(ping_list, sources_of(r, 3))
        union = [pair for mine in per_source for pair in mine]
        assert union == ping_list.active_pairs()
