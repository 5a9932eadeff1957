"""Phased ping-list generation (§5.1 of the paper).

SkeletonHunter builds its probing matrix in three phases:

1. **Preload** — at task submission, before any container exists, drop
   every cross-rail pair from the full endpoint mesh.  Rail-optimized
   topologies plus NCCL's cross-rail-to-NVLink conversion guarantee
   training traffic stays in-rail, so this alone cuts the list by the
   rail count (8x for standard hosts).
2. **Initialization** — activate pairs *incrementally* in the data plane:
   a pair only becomes probe-able once its destination container has
   registered.  This kills the false positives that controller-driven
   activation would raise while containers are still starting up.
3. **Runtime** — once traffic skeletons are inferred, restrict the list
   to pairs the training traffic actually traverses (>95% further cut).

Every agent asks for its own active pairs every round, so the list keeps
a lazily built index of them: the sorted active pairs plus a map from
source endpoint to that source's pairs.  The index is dropped only when
the registration set changes or ``pairs`` is reassigned; ``pairs`` is a
``frozenset`` so it cannot be mutated in place behind the index's back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
)

from repro.cluster.identifiers import ContainerId, EndpointId

__all__ = ["PingList", "PingListPhase", "ProbePair"]


@dataclass(frozen=True, order=True)
class ProbePair:
    """One probing assignment: ``src`` pings ``dst``.

    Pairs are stored in canonical (sorted) order so that each unordered
    endpoint pair contributes exactly one probing task per round.
    """

    src: EndpointId
    dst: EndpointId

    @staticmethod
    def canonical(a: EndpointId, b: EndpointId) -> "ProbePair":
        """The canonical pair for two endpoints (order-insensitive)."""
        if a == b:
            raise ValueError("a probe pair needs two distinct endpoints")
        first, second = sorted((a, b))
        return ProbePair(first, second)

    def involves(self, endpoint: EndpointId) -> bool:
        """Whether ``endpoint`` is one side of the pair."""
        return endpoint in (self.src, self.dst)

    def other(self, endpoint: EndpointId) -> EndpointId:
        """The peer of ``endpoint`` in this pair."""
        if endpoint == self.src:
            return self.dst
        if endpoint == self.dst:
            return self.src
        raise ValueError(f"{endpoint} is not part of {self}")


class PingListPhase:
    """Which generation phase produced a ping list."""

    FULL_MESH = "full_mesh"
    BASIC = "basic"          # preload: same-rail pruning
    SKELETON = "skeleton"    # runtime: traffic-skeleton pruning


#: The active-pair index: every active pair sorted, and each source
#: endpoint's active pairs in that same order.
_ActiveIndex = Tuple[
    Tuple[ProbePair, ...], Dict[EndpointId, List[ProbePair]]
]


@dataclass
class PingList:
    """A set of probe pairs plus data-plane activation state."""

    pairs: FrozenSet[ProbePair] = frozenset()
    phase: str = PingListPhase.BASIC
    _registered: Set[ContainerId] = field(default_factory=set)
    _index: Optional[_ActiveIndex] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value: Any) -> None:
        # Reassigning either set drops the active-pair index; pairs are
        # frozen so that reassignment is the only way to change them.
        if name == "pairs":
            value = frozenset(value)
        if name in ("pairs", "_registered"):
            super().__setattr__("_index", None)
        super().__setattr__(name, value)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def full_mesh(cls, endpoints: Iterable[EndpointId]) -> "PingList":
        """Every cross-container endpoint pair (the Pingmesh baseline)."""
        eps = sorted(endpoints)
        pairs = {
            ProbePair(eps[i], eps[j])
            for i in range(len(eps))
            for j in range(i + 1, len(eps))
            if eps[i].container != eps[j].container
        }
        return cls(pairs=pairs, phase=PingListPhase.FULL_MESH)

    @classmethod
    def basic(
        cls,
        endpoints: Iterable[EndpointId],
        rail_of: Callable[[EndpointId], int],
    ) -> "PingList":
        """The preload list: cross-container pairs on the same rail."""
        by_rail: Dict[int, List[EndpointId]] = {}
        for endpoint in sorted(endpoints):
            by_rail.setdefault(rail_of(endpoint), []).append(endpoint)
        pairs: Set[ProbePair] = set()
        for rail_endpoints in by_rail.values():
            n = len(rail_endpoints)
            for i in range(n):
                for j in range(i + 1, n):
                    a, b = rail_endpoints[i], rail_endpoints[j]
                    if a.container != b.container:
                        pairs.add(ProbePair(a, b))
        return cls(pairs=pairs, phase=PingListPhase.BASIC)

    @classmethod
    def from_edges(
        cls, edges: Iterable[FrozenSet[EndpointId]]
    ) -> "PingList":
        """The runtime list: exactly the inferred skeleton's edges."""
        pairs = set()
        for edge in edges:
            members = sorted(edge)
            if len(members) != 2:
                raise ValueError(f"skeleton edge must have two endpoints, "
                                 f"got {len(members)}")
            pairs.add(ProbePair(members[0], members[1]))
        return cls(pairs=pairs, phase=PingListPhase.SKELETON)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.pairs)

    def targets_of(self, src: EndpointId) -> List[EndpointId]:
        """All peers ``src`` should ping (activation-agnostic)."""
        return sorted(
            pair.other(src) for pair in self.pairs if pair.involves(src)
        )

    def restrict_to(
        self, edges: Iterable[FrozenSet[EndpointId]]
    ) -> "PingList":
        """Keep only pairs whose endpoints form an edge in ``edges``."""
        wanted = {
            ProbePair.canonical(*sorted(edge)) for edge in edges
        }
        return PingList(
            pairs=self.pairs & wanted,
            phase=PingListPhase.SKELETON,
            _registered=set(self._registered),
        )

    # ------------------------------------------------------------------
    # Incremental activation (initialization phase)
    # ------------------------------------------------------------------

    def register(self, container: ContainerId) -> None:
        """Mark a container as RUNNING and probe-able."""
        if container not in self._registered:
            self._registered.add(container)
            self._index = None

    def deregister(self, container: ContainerId) -> None:
        """Remove a container (terminated or crashed *gracefully*).

        Note: an ungraceful crash does NOT deregister — its peers keep
        probing it and correctly observe unconnectivity.
        """
        if container in self._registered:
            self._registered.discard(container)
            self._index = None

    def is_active(self, pair: ProbePair) -> bool:
        """Whether both sides of ``pair`` have registered."""
        return (
            pair.src.container in self._registered
            and pair.dst.container in self._registered
        )

    def _active_index(self) -> _ActiveIndex:
        index = self._index
        if index is None:
            active = tuple(sorted(p for p in self.pairs if self.is_active(p)))
            by_src: Dict[EndpointId, List[ProbePair]] = {}
            for pair in active:
                by_src.setdefault(pair.src, []).append(pair)
            index = self._index = (active, by_src)
        return index

    def active_pairs(self) -> List[ProbePair]:
        """All pairs whose endpoints have both registered, sorted."""
        return list(self._active_index()[0])

    def active_pairs_from(
        self, sources: Iterable[EndpointId]
    ) -> List[ProbePair]:
        """Active pairs whose canonical source is in ``sources``.

        ``sources`` must be in ascending order without repeats (a
        container's endpoints are); the result is then exactly the
        matching slice of :meth:`active_pairs`, in the same order.
        """
        by_src = self._active_index()[1]
        mine: List[ProbePair] = []
        for src in sources:
            mine.extend(by_src.get(src, ()))
        return mine

    def activation_ratio(self) -> float:
        """Fraction of pairs currently active."""
        if not self.pairs:
            return 0.0
        return len(self._active_index()[0]) / len(self.pairs)
