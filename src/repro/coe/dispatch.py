"""The pure cluster-dispatch core, shared by the sim and live backends.

:class:`repro.coe.cluster_engine.ClusterEngine` (discrete-event) and
:class:`repro.coe.live_engine.LiveEngine` (asyncio wall clock) must make
**byte-identical** admission decisions for the same group sequence —
that is the contract the sim/live cross-check enforces. The only way to
guarantee that is to make the decision math a pure function of
explicitly-passed state, with no clock in sight, kept in one copy:
:func:`shard_experts` (placement and owner map) and :func:`admit`
(deadline verdict and ``admission`` records).

The shards are a partition, so until the clock runs every expert has
one owner and both backends route a group to it by lookup (the sim in
:func:`repro.coe.columnar.admit_backlog`). The admission-logical
``backlog_s`` of a node is the running float sum of every previously
admitted group's execution time, accumulated in admission order (the
sim's admission sum; the live dispatcher's mirror of it). Never
measured. Floats flow through unchanged — same additions in the same
order on both backends — so the ETAs agree bit for bit.

:func:`choose_node` is the cluster's runtime routing only: a crashed
node's groups re-dispatched once ``steal`` replication has given an
expert several owners, where ``backlog_of(i)`` is node ``i``'s
estimated backlog. It is least-loaded under every cluster policy, so
``affinity`` routes as ``least_loaded``.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.systems.cluster import partition_experts

if TYPE_CHECKING:
    from repro.coe.decisions import DecisionLog
    from repro.coe.expert import ExpertLibrary, ExpertProfile


def shard_experts(
    library: "ExpertLibrary", num_nodes: int
) -> Tuple[List[List["ExpertProfile"]], Dict[str, List[int]]]:
    """The non-empty shards of :func:`partition_experts` (node ``i``
    serves shard ``i``) and the owner map: expert name -> indices of the
    nodes hosting it."""
    shards = [
        shard for shard in partition_experts(library, num_nodes) if shard
    ]
    owners: Dict[str, List[int]] = {}
    for index, shard in enumerate(shards):
        for expert in shard:
            owners.setdefault(expert.name, []).append(index)
    return shards, owners


def choose_node(
    owner_indices: Sequence[int],
    expert_name: str,
    backlog_of: Callable[[int], float],
) -> int:
    """Pick the owner node for a group of ``expert_name`` requests:
    least-loaded over ``owner_indices``, with index as the tie-break."""
    if not owner_indices:
        raise ValueError(f"no node hosts expert {expert_name!r}")
    return min(owner_indices, key=lambda i: (backlog_of(i), i))


def admission_eta(now: float, backlog_s: float, exec_s: float) -> float:
    """Estimated completion of a group admitted now behind ``backlog_s``.

    The one expression both backends use — a single float sum, so the
    deadline comparison below sees the identical value on either clock.
    """
    return now + backlog_s + exec_s


def deadline_admits(eta: float, deadline_s: Optional[float]) -> bool:
    """Whether an ETA meets the SLO deadline (no deadline admits all)."""
    return deadline_s is None or eta <= deadline_s


def admit(
    expert_name: str,
    batch: int,
    node: str,
    decisions: Optional["DecisionLog"],
    deadline_s: Optional[float],
    now: float,
    backlog_s: float,
    exec_s: float,
) -> bool:
    """Whether a group of ``batch`` requests for ``expert_name`` is
    admitted to the chosen ``node``.

    With a ``deadline_s`` its ETA (``now`` + the node's ``backlog_s`` +
    its ``exec_s``) must meet the deadline; without one those three are
    not read. ``decisions`` gets the verdict on its ``admission``
    stream: ``admit`` (admit/shed, detail ``(node, repr(eta))`` — full
    float precision, so one different bit in either backend's backlog
    math fails the cross-check) when there is a deadline, then
    ``dispatch`` for an admitted group.
    """
    label = f"{expert_name}x{batch}"
    if deadline_s is not None:
        eta = admission_eta(now, backlog_s, exec_s)
        admitted = deadline_admits(eta, deadline_s)
        if decisions is not None:
            decisions.record("admission", "admit", label,
                             "admit" if admitted else "shed",
                             detail=(node, repr(eta)))
        if not admitted:
            return False
    if decisions is not None:
        decisions.record("admission", "dispatch", label, node)
    return True


__all__ = [
    "admission_eta", "admit", "choose_node", "deadline_admits",
    "shard_experts",
]
