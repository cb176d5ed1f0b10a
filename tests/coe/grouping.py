"""The request order a node policy's grouping serves, as a list: the
oracle order tests build groups from with ``coalesce_groups``."""

from repro.coe.policies import NodePolicy
from repro.coe.scheduling import affinity_schedule


def node_order(requests, policy, window):
    """Arrival order under ``fifo``, else :func:`affinity_schedule`
    over ``window``-sized chunks (the serving engines' grouping, which
    runs its kernels over the whole backlog)."""
    if NodePolicy.coerce(policy) is NodePolicy.FIFO:
        return list(requests)
    return affinity_schedule(requests, window=window)
