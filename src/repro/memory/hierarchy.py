"""N-tier memory hierarchy with per-edge transfer costs.

:class:`MemoryHierarchy` generalizes the runtime's hard-coded DDR→HBM
pair (paper Section III-B) to an ordered stack of capacity levels —
fastest first — with an explicit cost on every adjacent edge. The CoE
runtime asks one question of it: *how long does it take to move
``num_bytes`` from tier A to tier B?* Multi-hop transfers (NVMe→HBM)
sum the per-hop edge costs, which models the store-and-forward path a
real promotion takes through DDR.

Two cost formulas coexist in this codebase and they are **not** the
same:

* :class:`EdgeCost` — ``latency_s + num_bytes / bandwidth`` — matches
  :meth:`repro.systems.platforms.Platform.switch_time` bitwise, which
  is what keeps the three-way drain equivalence and the sim/live
  cross-check byte-identical over a platform's hierarchy.
* :meth:`repro.memory.tiers.MemorySystem.transfer_time` — *source*
  latency plus *destination* latency plus the wire time — models the
  device tier stack. Do not substitute one for the other.

This module holds no residency: that lives in the runtime
(:class:`repro.coe.runtime.CoERuntime`), costs live here. Its only
state is a memo of prices over :class:`EdgeCost` edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.memory.tiers import TierKind
from repro.units import GB

#: Default NVMe edge characteristics (PCIe 4.0 x4 datacenter drive):
#: ~7 GB/s sequential read, ~5 GB/s sustained write, ~100 µs access.
DEFAULT_NVME_READ_BANDWIDTH = 7 * GB
DEFAULT_NVME_WRITE_BANDWIDTH = 5 * GB
DEFAULT_NVME_LATENCY_S = 100e-6

TierLike = Union[str, TierKind]
#: An edge cost: either a declarative :class:`EdgeCost` or an opaque
#: ``bytes -> seconds`` callable (what :meth:`MemoryHierarchy.from_edge_times`
#: takes).
EdgeLike = Union["EdgeCost", Callable[[int], float]]


def _tier_name(tier: TierLike) -> str:
    """Normalize a tier reference to its lowercase name."""
    if isinstance(tier, TierKind):
        return tier.name.lower()
    return str(tier).lower()


@dataclass(frozen=True)
class TierLevel:
    """One level of the hierarchy: a name and an optional byte budget.

    ``capacity_bytes=None`` means unbounded — the backing store at the
    bottom of the stack always fits the whole expert library.
    """

    name: str
    capacity_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a TierLevel needs a non-empty name")
        object.__setattr__(self, "name", _tier_name(self.name))
        if self.capacity_bytes is not None and self.capacity_bytes < 0:
            raise ValueError(
                f"tier {self.name!r}: negative capacity {self.capacity_bytes}"
            )

    @property
    def bounded(self) -> bool:
        return self.capacity_bytes is not None


@dataclass(frozen=True)
class EdgeCost:
    """Bandwidth/latency cost of one hierarchy edge.

    ``time_s`` reproduces :meth:`Platform.switch_time` exactly —
    zero bytes cost nothing (no transfer is issued), otherwise one
    latency plus the wire time.
    """

    bandwidth: float
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency_s < 0:
            raise ValueError(f"negative latency: {self.latency_s}")

    def time_s(self, num_bytes: int) -> float:
        if num_bytes < 0:
            raise ValueError(f"negative transfer size: {num_bytes}")
        if num_bytes == 0:
            return 0.0
        return self.latency_s + num_bytes / self.bandwidth


def _edge_time(edge: EdgeLike, num_bytes: int) -> float:
    if isinstance(edge, EdgeCost):
        return edge.time_s(num_bytes)
    return edge(num_bytes)


class MemoryHierarchy:
    """Ordered memory levels (fastest first) plus per-edge costs.

    ``levels`` orders the stack top-down — ``("hbm", "ddr", "nvme")``
    for the full SN40L node. ``edges`` maps ``(src, dst)`` name pairs
    to an :class:`EdgeCost` or a ``bytes -> seconds`` callable; every
    *adjacent* pair must have an edge in both directions so any
    multi-hop transfer can be priced. Non-adjacent direct edges (a DMA
    path that bypasses DDR, say) are optional overrides: when present
    they win over the hop-sum.
    """

    def __init__(
        self,
        levels: Sequence[TierLevel],
        edges: Mapping[Tuple[TierLike, TierLike], EdgeLike],
    ) -> None:
        if len(levels) < 2:
            raise ValueError("a MemoryHierarchy needs at least two levels")
        self._levels: Tuple[TierLevel, ...] = tuple(levels)
        self._index: Dict[str, int] = {}
        for i, level in enumerate(self._levels):
            if level.name in self._index:
                raise ValueError(f"duplicate tier name {level.name!r}")
            self._index[level.name] = i
        self._edges: Dict[Tuple[str, str], EdgeLike] = {}
        for (src, dst), cost in edges.items():
            src_name, dst_name = _tier_name(src), _tier_name(dst)
            for name in (src_name, dst_name):
                if name not in self._index:
                    raise ValueError(
                        f"edge references unknown tier {name!r}; "
                        f"levels are {self.names}"
                    )
            if src_name == dst_name:
                raise ValueError(f"self-edge on tier {src_name!r}")
            self._edges[(src_name, dst_name)] = cost
        #: ``(src, dst, num_bytes)`` -> seconds, for paths made only of
        #: :class:`EdgeCost` edges (a callable edge may keep state).
        self._prices: Dict[Tuple[TierLike, TierLike, int], float] = {}
        for i in range(len(self._levels) - 1):
            upper, lower = self._levels[i].name, self._levels[i + 1].name
            for pair in ((lower, upper), (upper, lower)):
                if pair not in self._edges:
                    raise ValueError(
                        f"missing edge {pair[0]!r}->{pair[1]!r}: every "
                        "adjacent pair needs costs in both directions"
                    )

    # ------------------------------------------------------------------
    @property
    def levels(self) -> Tuple[TierLevel, ...]:
        return self._levels

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(level.name for level in self._levels)

    def __contains__(self, tier: TierLike) -> bool:
        return _tier_name(tier) in self._index

    def index(self, tier: TierLike) -> int:
        """Position of ``tier`` in the stack (0 = fastest)."""
        name = _tier_name(tier)
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(
                f"unknown tier {name!r}; levels are {self.names}"
            ) from None

    def level(self, tier: TierLike) -> TierLevel:
        return self._levels[self.index(tier)]

    def capacity_bytes(self, tier: TierLike) -> Optional[int]:
        """Byte budget of ``tier`` (``None`` = unbounded)."""
        return self.level(tier).capacity_bytes

    def below(self, tier: TierLike) -> Optional[str]:
        """Name of the next (slower) level below ``tier``, if any."""
        i = self.index(tier) + 1
        return self._levels[i].name if i < len(self._levels) else None

    # ------------------------------------------------------------------
    def path(self, src: TierLike, dst: TierLike) -> List[Tuple[str, str]]:
        """The adjacent hops a ``src``→``dst`` transfer traverses."""
        si, di = self.index(src), self.index(dst)
        step = 1 if di > si else -1
        return [
            (self._levels[i].name, self._levels[i + step].name)
            for i in range(si, di, step)
        ]

    def transfer_time(
        self, src: TierLike, dst: TierLike, num_bytes: int
    ) -> float:
        """Seconds to move ``num_bytes`` from ``src`` to ``dst``.

        Uses the direct ``(src, dst)`` edge when one exists, otherwise
        sums the adjacent-hop costs along the level order. Zero-length
        paths (``src == dst``) cost nothing. A price over
        :class:`EdgeCost` edges only is memoized; a callable edge is
        called on every transfer.
        """
        if num_bytes < 0:
            raise ValueError(f"negative transfer size: {num_bytes}")
        key = (src, dst, num_bytes)
        price = self._prices.get(key)
        if price is not None:
            return price
        src_name, dst_name = _tier_name(src), _tier_name(dst)
        direct = self._edges.get((src_name, dst_name))
        if src_name == dst_name:
            self.index(src_name)  # still validate the tier exists
            edges, price = [], 0.0
        elif direct is not None:
            edges, price = [direct], _edge_time(direct, num_bytes)
        else:
            edges = [self._edges[hop] for hop in self.path(src_name, dst_name)]
            price = sum(_edge_time(edge, num_bytes) for edge in edges)
        if all(isinstance(edge, EdgeCost) for edge in edges):
            self._prices[key] = price
        return price

    def with_capacities(
        self, overrides: Mapping[TierLike, Optional[int]]
    ) -> "MemoryHierarchy":
        """A copy with some level capacities replaced."""
        named = {_tier_name(t): cap for t, cap in overrides.items()}
        unknown = set(named) - set(self.names)
        if unknown:
            raise ValueError(
                f"unknown tiers {sorted(unknown)}; levels are {self.names}"
            )
        levels = [
            TierLevel(level.name, named.get(level.name, level.capacity_bytes))
            for level in self._levels
        ]
        return MemoryHierarchy(levels, dict(self._edges))

    def __repr__(self) -> str:
        stack = " > ".join(
            f"{lvl.name}[{lvl.capacity_bytes if lvl.bounded else '∞'}]"
            for lvl in self._levels
        )
        return f"MemoryHierarchy({stack})"

    # ------------------------------------------------------------------
    @classmethod
    def from_platform(
        cls,
        platform,
        *,
        nvme_read_bandwidth: float = DEFAULT_NVME_READ_BANDWIDTH,
        nvme_write_bandwidth: float = DEFAULT_NVME_WRITE_BANDWIDTH,
        nvme_latency_s: float = DEFAULT_NVME_LATENCY_S,
    ) -> "MemoryHierarchy":
        """The hbm > ddr > nvme stack of a serving platform.

        The DDR↔HBM edges reproduce ``platform.switch_time`` bitwise in
        both directions (the legacy runtime priced downgrades with the
        upgrade callable), so swapping the legacy pair for this
        hierarchy changes no simulated number. NVMe hangs below DDR as
        the unbounded backing store.
        """
        levels = (
            TierLevel("hbm", platform.hbm_capacity_bytes),
            TierLevel("ddr", platform.second_tier_capacity_bytes),
            TierLevel("nvme", None),
        )
        switch = EdgeCost(platform.switch_bandwidth, platform.switch_latency_s)
        edges = {
            ("ddr", "hbm"): switch,
            ("hbm", "ddr"): switch,
            ("nvme", "ddr"): EdgeCost(nvme_read_bandwidth, nvme_latency_s),
            ("ddr", "nvme"): EdgeCost(nvme_write_bandwidth, nvme_latency_s),
        }
        return cls(levels, edges)

    @classmethod
    def from_edge_times(
        cls,
        upgrade_time: Callable[[int], float],
        downgrade_time: Optional[Callable[[int], float]] = None,
    ) -> "MemoryHierarchy":
        """A two-level HBM/DDR hierarchy from raw cost callables.

        ``upgrade_time`` prices DDR→HBM copies and ``downgrade_time``
        (default: the same callable) HBM→DDR copy-backs, verbatim, so a
        plain ``bytes -> seconds`` cost model (a test double, say) gives
        a :class:`CoERuntime` exactly the costs it returns.
        """
        levels = (TierLevel("hbm", None), TierLevel("ddr", None))
        edges = {
            ("ddr", "hbm"): upgrade_time,
            ("hbm", "ddr"): downgrade_time or upgrade_time,
        }
        return cls(levels, edges)


__all__ = [
    "DEFAULT_NVME_LATENCY_S",
    "DEFAULT_NVME_READ_BANDWIDTH",
    "DEFAULT_NVME_WRITE_BANDWIDTH",
    "EdgeCost",
    "MemoryHierarchy",
    "TierLevel",
]
