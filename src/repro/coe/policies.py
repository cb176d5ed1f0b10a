"""The serving knobs: typed policies and one table of field domains.

Each policy is an enum whose member values are the wire strings that
reports and JSON dumps carry. :meth:`PolicyEnum.coerce` takes a member
or its value string, and a typo fails with the full menu of members.

:data:`FIELDS` declares each :class:`repro.coe.api.ServeConfig` field's
domain once: type, bounds, coercion, default, the mode it takes effect
in, and its JSON encoding. :data:`RULES` are the rules that relate
fields. :func:`validate` applies both: the config checks every field
through it, and each engine and server the fields it takes, so no other
module restates a knob's legal values.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.load import ArrivalSpec
from repro.sim.faults import FaultSchedule


class PolicyEnum(enum.Enum):
    """Base for policy enums: string coercion with a helpful error."""

    @classmethod
    def coerce(cls, value: Union[str, "PolicyEnum"]) -> "PolicyEnum":
        """Return the member for ``value`` (member or value string).

        Raises ``ValueError`` naming every valid member, e.g.::

            unknown NodePolicy 'fancy'; expected one of
            'fifo', 'affinity', 'overlap'
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            for member in cls:
                if member.value == value:
                    return member
        valid = ", ".join(repr(m.value) for m in cls)
        raise ValueError(
            f"unknown {cls.__name__} {value!r}; expected one of {valid}"
        )

    @classmethod
    def values(cls) -> tuple:
        """The member value strings, in declaration order."""
        return tuple(m.value for m in cls)

    def __str__(self) -> str:  # stable across Python versions
        return self.value


class NodePolicy(PolicyEnum):
    """Single-node scheduling policy of :class:`ServingEngine`."""

    FIFO = "fifo"
    AFFINITY = "affinity"
    OVERLAP = "overlap"


class ClusterPolicy(PolicyEnum):
    """Cross-node dispatch policy of :class:`ClusterEngine`.

    ``AFFINITY`` routes exactly as ``LEAST_LOADED``: every expert has one
    owner unless ``STEAL`` replication adds more, and its queue-tail
    preference could only choose among several.
    """

    LEAST_LOADED = "least_loaded"
    AFFINITY = "affinity"
    STEAL = "steal"


class ServeMode(PolicyEnum):
    """Which clock drives a :class:`repro.coe.api.ServeConfig` run.

    ``SIM`` executes on the discrete-event simulator (the default and
    the fast path); ``LIVE`` executes the same policies on an asyncio
    wall clock (:mod:`repro.coe.live_engine`) with real admission,
    bounded queues and streaming token emission. Mode-specific options
    are rejected in the other mode with a typed :class:`ServeModeError`.
    """

    SIM = "sim"
    LIVE = "live"


class DrainMode(PolicyEnum):
    """How a :class:`ServingEngine` executes its queued groups.

    Only the drain differs: both modes admit the t=0 backlog through
    the same array admission (:func:`repro.coe.columnar.admit_backlog`).
    They are byte-identical in every simulated output (the equivalence
    grid in ``tests/coe/test_batched_equivalence.py`` pins it) and
    differ only in how much Python runs per group:

    - ``REFERENCE`` — one begin/finish simulator event pair per group,
      the seed-equivalent event-by-event execution.
    - ``COLUMNAR`` — the default: the whole queue drains in one
      simulator event on a local clock. Each node's queue is parallel
      arrays (:mod:`repro.coe.columnar`) and maximal runs of resident-
      expert groups are timestamped with one ``numpy`` cumsum instead of
      a Python iteration each; only decision points (cache misses, and
      every group under ``overlap``) run the scalar group step. Traced,
      pipelined and ``lookahead`` runs take it too — see
      docs/PERFORMANCE.md.
    """

    REFERENCE = "reference"
    COLUMNAR = "columnar"


class CachePolicyName(PolicyEnum):
    """HBM expert-cache eviction policy of :class:`CoERuntime`.

    The names resolve to implementations in :mod:`repro.coe.cache`;
    ``BELADY`` is the offline oracle and needs a recorded trace, so it
    can only be configured by passing a
    :class:`~repro.coe.cache.BeladyPolicy` instance, never by name.
    ``LOOKAHEAD`` is nameable but needs a scheduler backlog: the serving
    engines attach their own queue view automatically, while a bare
    :class:`CoERuntime` raises a typed error at the first eviction
    decision (see :class:`~repro.coe.cache.LookaheadUnboundError`).
    """

    LRU = "lru"
    LFU = "lfu"
    GDSF = "gdsf"
    PREDICTIVE = "predictive"
    LOOKAHEAD = "lookahead"
    BELADY = "belady"


class SchedulerName(PolicyEnum):
    """Admission-time request-reordering scheduler of the engines.

    Applied to the queued backlog *before* node scheduling and group
    coalescing (see :mod:`repro.coe.scheduling`):

    - ``FIFO`` — arrival order, the historical behaviour.
    - ``EXPERT_REORDER`` — batch queued requests by expert over a long
      horizon to amortize tier switches (the CoServe scenario,
      arXiv:2503.02354): under a constrained HBM/DDR budget, runs of
      same-expert requests turn k misses into 1 miss + (k-1) hits.

    The names resolve to implementations through
    :data:`repro.coe.scheduling.SCHEDULERS` /
    :func:`repro.coe.scheduling.make_scheduler`, mirroring the
    ``CACHE_POLICIES`` pattern.
    """

    FIFO = "fifo"
    EXPERT_REORDER = "expert_reorder"


def check_count(name: str, value: object, minimum: int = 1) -> int:
    """Return ``value`` as an ``int`` count, or raise ``ValueError``.

    A count (nodes, batch size, window, replicas) must be an integer of
    at least ``minimum``. ``bool`` is refused even though it is an ``int``
    (``num_nodes=True`` would quietly mean one node), as is anything
    :func:`operator.index` refuses (``2.5``, ``"2"``); numpy integers
    pass.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(
            f"{name} must be an integer, got {value!r}"
        ) from None
    if count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {count}")
    return count


class ServeModeError(ValueError):
    """A config option was used in the wrong :class:`ServeMode`.

    Raised instead of silently ignoring the option, matching the
    belady-by-name rejection pattern: a knob that cannot take effect in
    the requested mode is a caller bug, not a default to paper over.
    """


class Domain:
    """The legal values of one ``ServeConfig`` field.

    :meth:`check` coerces a value into the domain or raises a
    ``ValueError`` naming the field; :meth:`encode` is the JSON form,
    which :meth:`check` takes back. A field with a ``mode`` takes effect
    only in that :class:`ServeMode`; it defaults to ``None`` (unset),
    which stands for ``unset`` there.
    """

    default: object = None
    mode: Optional[ServeMode] = None
    unset: object = None

    def check(self, name: str, value: object) -> object:
        raise NotImplementedError

    def encode(self, value: object) -> object:
        return value

    def resolve(self, value: object) -> object:
        """The value in effect: ``unset`` for ``None``."""
        return self.unset if value is None else value


@dataclass(frozen=True)
class Choice(Domain):
    """A member of ``enum`` or its value, except ``refused`` members,
    each refused by name with its reason."""

    enum: type
    default: PolicyEnum
    refused: Tuple[Tuple[PolicyEnum, str], ...] = ()

    @property
    def choices(self) -> tuple:
        """The value strings a caller may name."""
        refused = dict(self.refused)
        return tuple(m.value for m in self.enum if m not in refused)

    def check(self, name: str, value: object) -> PolicyEnum:
        try:
            member = self.enum.coerce(value)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        for refused, reason in self.refused:
            if member is refused:
                raise ValueError(f"{name} {member.value!r} {reason}")
        return member

    def encode(self, value: PolicyEnum) -> str:
        return value.value


@dataclass(frozen=True)
class Count(Domain):
    """An integer of at least ``minimum`` (:func:`check_count`); ``None``
    too when that is the default."""

    default: Optional[int]
    minimum: int = 1
    mode: Optional[ServeMode] = None
    unset: Optional[int] = None

    def check(self, name: str, value: object) -> Optional[int]:
        if value is None and self.default is None:
            return None
        return check_count(name, value, self.minimum)


@dataclass(frozen=True)
class Real(Domain):
    """An ``int`` or ``float`` (not a ``bool``) above 0, finite unless
    ``finite`` is off; ``None`` too when that is the default."""

    default: Optional[float]
    finite: bool = True
    mode: Optional[ServeMode] = None
    unset: Optional[float] = None

    def check(self, name: str, value: object) -> Optional[float]:
        if value is None and self.default is None:
            return None
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        # Written so that NaN fails.
        if not (value > 0 and (math.isfinite(value) or not self.finite)):
            bound = "finite and > 0" if self.finite else "> 0"
            raise ValueError(f"{name} must be {bound}, got {value}")
        return value


@dataclass(frozen=True)
class Flag(Domain):
    """``True`` or ``False``, not a value that converts to one."""

    default: bool

    def check(self, name: str, value: object) -> bool:
        if not isinstance(value, bool):
            raise ValueError(f"{name} must be True or False, got {value!r}")
        return value


#: Tier names a ``tier_capacities`` budget may size.
TIER_NAMES = ("hbm", "ddr", "nvme")


class Tiers(Domain):
    """``None``, or positive byte budgets keyed by :data:`TIER_NAMES`,
    with a bounded DDR tier covering the HBM region."""

    def check(self, name: str, value: object) -> Optional[Dict[str, int]]:
        if value is None:
            return None
        if not isinstance(value, Mapping):
            raise ValueError(f"{name} must map tiers to bytes, got {value!r}")
        unknown = set(value) - set(TIER_NAMES)
        if unknown:
            raise ValueError(
                f"unknown {name} keys {sorted(map(str, unknown))}; "
                f"expected a subset of {TIER_NAMES}"
            )
        caps = {tier: check_count(f"{name}[{tier!r}]", size)
                for tier, size in value.items()}
        hbm, ddr = caps.get("hbm"), caps.get("ddr")
        if hbm is not None and ddr is not None and ddr < hbm:
            raise ValueError(
                f"{name}['ddr'] ({ddr}) must be >= the HBM expert region "
                f"({hbm}): the hierarchy is inclusive — every HBM resident "
                "keeps its DDR home copy"
            )
        return caps

    def encode(self, value: Optional[Dict[str, int]]) -> Optional[dict]:
        return None if value is None else dict(value)


class Faults(Domain):
    """A :class:`FaultSchedule`, or fault events, or spec strings
    (``"node3:2.5"``); ``None`` is the empty schedule."""

    default = FaultSchedule()

    def check(self, name: str, value: object) -> FaultSchedule:
        if value is None or isinstance(value, FaultSchedule):
            return value or FaultSchedule()
        try:
            items = tuple(value)
            if all(isinstance(item, str) for item in items):
                return FaultSchedule.from_specs(items)
            return FaultSchedule(faults=items)
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from None

    def encode(self, value: FaultSchedule) -> list:
        return value.specs()


class Load(Domain):
    """``None``, an :class:`ArrivalSpec`, or its dict form."""

    def check(self, name: str, value: object) -> Optional[ArrivalSpec]:
        if value is None or isinstance(value, ArrivalSpec):
            return value
        try:
            return ArrivalSpec.from_dict(dict(value))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from None

    def encode(self, value: Optional[ArrivalSpec]) -> Optional[dict]:
        return None if value is None else value.to_dict()


#: Every ``ServeConfig`` field's domain, in field order.
FIELDS: Dict[str, Domain] = {
    "policy": Choice(NodePolicy, NodePolicy.OVERLAP),
    "cluster_policy": Choice(ClusterPolicy, ClusterPolicy.STEAL),
    "cache_policy": Choice(CachePolicyName, CachePolicyName.LRU, refused=(
        (CachePolicyName.BELADY,
         "is the offline oracle and needs a recorded trace; build a "
         "repro.coe.cache.BeladyPolicy (e.g. BeladyPolicy.from_runtime of "
         "a prior run) and pass it to the engine directly"),
    )),
    "scheduler": Choice(SchedulerName, SchedulerName.FIFO),
    "pipeline_promotions": Flag(False),
    "tier_capacities": Tiers(),
    "num_nodes": Count(1),
    "max_batch": Count(8),
    "window": Count(16),
    "online_replication": Flag(True),
    "reserved_hbm_bytes": Count(None, minimum=0),
    "faults": Faults(),
    "heartbeat_s": Real(0.05),
    "deadline_s": Real(None, finite=False),
    "mode": Choice(ServeMode, ServeMode.SIM),
    "load": Load(),
    "max_queue": Count(None, mode=ServeMode.LIVE, unset=64),
    "time_scale": Real(None, mode=ServeMode.LIVE, unset=1.0),
    "drain_timeout_s": Real(None, finite=False, mode=ServeMode.LIVE,
                            unset=30.0),
}

#: The fields that take effect only in ``mode='live'``.
LIVE_ONLY = tuple(
    name for name, domain in FIELDS.items() if domain.mode is ServeMode.LIVE
)


def _hbm_sized_once(reserved_hbm_bytes, tier_capacities) -> None:
    if reserved_hbm_bytes is not None and "hbm" in (tier_capacities or ()):
        raise ValueError(
            "reserved_hbm_bytes and tier_capacities['hbm'] both size the "
            "HBM expert region; pass one or the other"
        )


def _pipelining_without_overlap(policy, pipeline_promotions) -> None:
    if pipeline_promotions and policy is NodePolicy.OVERLAP:
        raise ValueError(
            "pipeline_promotions is incompatible with policy 'overlap': "
            "overlap's speculative prefetches start at 'now' regardless "
            "of DMA occupancy, so sharing the prefetch lane with "
            "pipelined NVMe promotions would double-book the DMA"
        )


def _live_knobs_need_live(mode, **knobs) -> None:
    given = [name for name, value in knobs.items() if value is not None]
    if mode is ServeMode.SIM and given:
        raise ServeModeError(
            f"{', '.join(given)} only take effect in mode='live'; they "
            f"would be silently ignored by the simulator — drop them or "
            f"set mode='live'"
        )


def _sim_features_need_sim(mode, faults, policy, cluster_policy,
                           num_nodes) -> None:
    if mode is not ServeMode.LIVE:
        return
    if faults:
        raise ServeModeError(
            "fault injection is a sim-clock feature (deterministic "
            "crash/slow/copyfail events need the discrete-event "
            "schedule); drop faults or set mode='sim'"
        )
    if policy is NodePolicy.OVERLAP:
        raise ServeModeError(
            "policy 'overlap' (speculative prefetch on the modelled DMA "
            "clock) is sim-only; use 'fifo' or 'affinity' in mode='live'"
        )
    if cluster_policy is ClusterPolicy.STEAL and num_nodes > 1:
        raise ServeModeError(
            "cluster_policy 'steal' (runtime queue rebalancing on the sim "
            "clock) is sim-only; use 'least_loaded' or 'affinity' in "
            "mode='live'"
        )


#: The rules that relate fields, as (fields, rule): :func:`validate`
#: applies a rule wherever all its fields are given.
RULES = (
    (("reserved_hbm_bytes", "tier_capacities"), _hbm_sized_once),
    (("policy", "pipeline_promotions"), _pipelining_without_overlap),
    (("mode",) + LIVE_ONLY, _live_knobs_need_live),
    (("mode", "faults", "policy", "cluster_policy", "num_nodes"),
     _sim_features_need_sim),
)


def validate(**values: object) -> Dict[str, object]:
    """``values`` (field name -> value) coerced through :data:`FIELDS`,
    after every rule whose fields are all given has passed."""
    checked = {name: FIELDS[name].check(name, value)
               for name, value in values.items()}
    for names, rule in RULES:
        if all(name in checked for name in names):
            rule(**{name: checked[name] for name in names})
    return checked


__all__ = [
    "FIELDS", "LIVE_ONLY", "RULES", "TIER_NAMES", "CachePolicyName",
    "Choice", "ClusterPolicy", "Count", "Domain", "DrainMode", "Faults",
    "Flag", "Load", "NodePolicy", "PolicyEnum", "Real", "SchedulerName",
    "ServeMode", "ServeModeError", "Tiers", "check_count", "validate",
]
