"""Typed serving policies for the CoE engines.

Historically the engines took stringly-typed policies (``"fifo"``,
``"affinity"``, ``"overlap"`` for one node; ``"least_loaded"``,
``"affinity"``, ``"steal"`` for the cluster) and each constructor
validated its own strings. These enums are now the single source of
truth: :class:`repro.coe.api.ServeConfig` stores enum members, and both
engines coerce whatever they are given — an enum member or its string
value — through :meth:`PolicyEnum.coerce`, which raises a clear error
listing the valid members. Plain strings therefore keep working
everywhere a policy is accepted (back-compat), but typos fail with the
full menu instead of a bare ``unknown policy``.

The members' *values* are the legacy strings, so reports and JSON dumps
are unchanged: engines store ``NodePolicy.coerce(p).value`` internally.
"""

from __future__ import annotations

import enum
import operator
from typing import Union


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
    are rejected in the other mode with a typed
    :class:`repro.coe.api.ServeModeError`.
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


__all__ = [
    "CachePolicyName", "ClusterPolicy", "DrainMode", "NodePolicy",
    "PolicyEnum", "SchedulerName", "ServeMode", "check_count",
]
