"""Sim/live decision cross-check: one trace, two clocks, one verdict.

The policy/clock split (:mod:`repro.sim.clock`) claims that every
decision-making component — grouping, cluster dispatch, deadline
admission, cache victim selection — is clock-agnostic: the same request
stream must produce **byte-identical decisions** whether the policies
run on the discrete-event simulator or on the asyncio wall clock. This
module is the proof harness. :func:`cross_check` serves the same
backlog through both backends with a :class:`repro.coe.decisions
.DecisionLog` attached to each, then compares the logs stream by
stream:

- ``admission`` — dispatch target per group, plus admit/shed verdicts
  with the ETA at full ``repr`` float precision (cluster configs only,
  matching which engine the sim backend selects);
- ``node0``/``node1``/... — each node runtime's demand cache decisions:
  hits, and misses with the exact eviction victim list.

A single different bit anywhere — a backlog sum, a tie-break, a cache
recency update — shows up as a differing record and a non-``None``
:meth:`~repro.coe.decisions.DecisionLog.diff`.

Two preconditions are enforced rather than assumed: mixed priorities
need every arrival at one instant (deadline admission sorts each call
by priority: the sim makes one, live one per release instant), and the
live run must shed nothing to backpressure (a backpressure shed skips a
group's cache activity, which would desynchronize the node streams — so
the check pins ``max_queue`` above the whole backlog by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.coe.decisions import DecisionLog
from repro.coe.engine import EngineRequest
from repro.coe.expert import ExpertLibrary
from repro.coe.policies import LIVE_ONLY

#: Fast-forward time_scale (wall seconds per model second) the check
#: runs live mode at when the caller did not pin one: a multi-second
#: model trace finishes in tens of wall milliseconds.
CHECK_TIME_SCALE = 0.01


@dataclass(frozen=True)
class CrossCheckResult:
    """Outcome of one sim/live decision comparison."""

    match: bool
    #: First divergence, human-readable; ``None`` on a match.
    mismatch: Optional[str]
    decisions: int
    streams: tuple
    sim_log: DecisionLog = field(repr=False, compare=False, default=None)
    live_log: DecisionLog = field(repr=False, compare=False, default=None)
    sim_report: object = field(repr=False, compare=False, default=None)
    live_report: object = field(repr=False, compare=False, default=None)

    def to_dict(self) -> dict:
        return {
            "match": self.match,
            "mismatch": self.mismatch,
            "decisions": self.decisions,
            "streams": list(self.streams),
        }


def cross_check(
    platform,
    library: ExpertLibrary,
    requests: Sequence[EngineRequest],
    config=None,
) -> CrossCheckResult:
    """Serve ``requests`` on both clocks and diff every decision.

    ``config`` may be a sim- or live-mode :class:`repro.coe.api
    .ServeConfig` (or ``None`` for a live-valid default); the other
    mode's twin is derived from it — the whole point is that one config
    describes both runs. Sim-only features (faults, ``overlap``,
    ``steal``) raise the usual typed :class:`~repro.coe.api
    .ServeModeError` because no live twin exists for them.
    """
    from repro.coe.api import ServeConfig, ServeMode, build_server
    from repro.coe.live_engine import LiveEngine

    if config is None:
        config = ServeConfig(
            policy="affinity", cluster_policy="least_loaded", mode="live",
        )
    requests = list(requests)
    if (len({r.priority for r in requests}) > 1
            and len({r.arrival_s for r in requests}) > 1):
        raise ValueError(
            "cross_check needs uniform request priorities unless every "
            "request arrives at one instant: live admits spread arrivals "
            "in several priority-sorted calls, the sim in one"
        )
    sim_config = config.with_(mode=ServeMode.SIM, **dict.fromkeys(LIVE_ONLY))
    live_config = config.with_(
        mode=ServeMode.LIVE,
        # Never backpressure-shed: a shed group skips its cache activity
        # and the node streams would diverge for queueing reasons, not
        # policy reasons.
        max_queue=max(config.max_queue or 0, len(requests) + 1),
        time_scale=(
            config.time_scale if config.time_scale is not None
            else CHECK_TIME_SCALE
        ),
    )

    sim_log = DecisionLog()
    sim_report = build_server(
        platform, library, sim_config, decision_log=sim_log
    ).serve(requests)

    live_log = DecisionLog()
    live_engine = LiveEngine(
        platform, library, live_config, decision_log=live_log
    )
    live_report = live_engine.serve(requests)
    if live_report.shed_backpressure:
        raise RuntimeError(
            f"cross_check shed {live_report.shed_backpressure} requests to "
            f"backpressure despite max_queue={live_config.max_queue}"
        )

    mismatch = sim_log.diff(live_log)
    return CrossCheckResult(
        match=mismatch is None,
        mismatch=mismatch,
        decisions=len(sim_log),
        streams=tuple(sim_log.streams),
        sim_log=sim_log,
        live_log=live_log,
        sim_report=sim_report,
        live_report=live_report,
    )


__all__ = ["CHECK_TIME_SCALE", "CrossCheckResult", "cross_check"]
