"""Request scheduling and expert prediction for CoE serving.

The building blocks of the serving engines' schedules (the paper's
Section V-B runtime is FIFO; these are the natural extensions its
architecture enables):

- **Expert-affinity batching** — within a bounded reordering window,
  group requests that need the same expert so one DDR->HBM copy serves
  several generations. The three-tier design makes switches cheap, but a
  hit is still free; affinity turns random arrival streams into runs of
  hits. One grouping algorithm, as array kernels over expert codes
  (:func:`expert_codes`): :func:`window_order` is the window reorder
  and :func:`group_starts` the ``max_batch`` cuts. Both clocks group a
  whole trace with them once (:func:`repro.coe.columnar.group_backlog`)
  and admit the groups through one function
  (:func:`repro.coe.columnar.admit_backlog`): the sim all at t=0, the
  live engine each group once the arrivals that close it are in
  (:func:`release_times`). :func:`affinity_schedule` and
  :func:`coalesce_groups` wrap the kernels for :class:`Request` lists.
- **Expert prediction** — :class:`ExpertPredictor` ranks the experts
  most likely to be routed next. Speculative prefetch itself is the
  engines' ``overlap`` node policy
  (:class:`repro.coe.engine.ServingEngine`): it copies the best
  non-resident guess while the DMA engines would otherwise sit idle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import (
    Dict, Iterator, KeysView, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.coe.expert import ExpertProfile
from repro.coe.policies import NodePolicy, SchedulerName


@dataclass(frozen=True)
class Request:
    """One serving request with a pre-routed expert."""

    request_id: int
    expert: ExpertProfile


_PROMPT_TOKENS = attrgetter("prompt_tokens")
_OUTPUT_TOKENS = attrgetter("output_tokens")
_EXPERT_NAME = attrgetter("expert.name")


def fifo_schedule(requests: Sequence[Request]) -> List[Request]:
    """The baseline: serve in arrival order."""
    return list(requests)


def affinity_schedule(requests: Sequence[Request], window: int = 16) -> List[Request]:
    """Group same-expert requests within a bounded reordering window.

    Requests are taken ``window`` at a time; inside a window they are
    stably grouped by expert (groups ordered by first arrival), so no
    request is delayed by more than ``window - 1`` positions — a bounded
    fairness guarantee. The order comes from :func:`window_order`.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    codes, _ = expert_codes(requests)
    return take(requests, window_order(codes, window))


def expert_codes(requests: Sequence[Request]) -> Tuple[np.ndarray, List[str]]:
    """Each request's expert name as an integer code, and the name of
    each code: codes number the distinct names in first-seen order."""
    names = list(map(_EXPERT_NAME, requests))
    code_of = {name: code for code, name in enumerate(dict.fromkeys(names))}
    codes = np.fromiter(map(code_of.__getitem__, names), np.intp, len(names))
    return codes, list(code_of)


def window_order(codes: np.ndarray, window: int) -> np.ndarray:
    """The permutation :func:`affinity_schedule` applies, from expert
    codes: within each ``window``-sized chunk, a stable sort by the
    position of the first request of the same expert in the chunk."""
    n = len(codes)
    # A stable sort by (chunk, code) makes each class contiguous, led by
    # its first arrival.
    key = np.arange(n) // window * (int(codes.max(initial=0)) + 1) + codes
    by_key = np.argsort(key, kind="stable")
    heads = np.flatnonzero(np.diff(key[by_key], prepend=-1))
    first = np.empty(n, dtype=np.intp)
    first[by_key] = np.repeat(by_key[heads], np.diff(np.append(heads, n)))
    return np.argsort(first, kind="stable")


def group_starts(codes: np.ndarray, max_batch: int) -> np.ndarray:
    """Where each group :func:`coalesce_groups` cuts from a schedule
    begins: every maximal same-code run splits into ``max_batch``-sized
    groups, the last one partial. A group ends where the next begins."""
    runs = np.flatnonzero(np.diff(codes, prepend=-1))
    per_run = -(-np.diff(np.append(runs, len(codes))) // max_batch)
    skip = np.repeat(np.cumsum(per_run) - per_run, per_run)
    return np.repeat(runs, per_run) + (np.arange(len(skip)) - skip) * max_batch


def take(items: Sequence, index: np.ndarray) -> list:
    """``[items[i] for i in index]``, at C speed."""
    return list(map(items.__getitem__, index.tolist()))


# ----------------------------------------------------------------------
# Admission-time schedulers (registry mirrors repro.coe.cache's
# CACHE_POLICIES / make_policy pattern)
# ----------------------------------------------------------------------


class Scheduler:
    """Admission-time request reordering, applied to the whole backlog.

    Runs *before* node scheduling, as a :meth:`permutation` of the
    backlog's expert codes: both clocks' grouping applies it to the
    codes it computes anyway (:func:`repro.coe.columnar.group_backlog`);
    :meth:`order` applies it to a request list. Schedulers are
    stateless — a pure function of their input — which is what makes
    one instance safely shareable across cluster nodes and across the
    sim and live engines of a cross-check pair.
    """

    #: Registry key; subclasses set it to a :class:`SchedulerName` value.
    name = "scheduler"

    def permutation(self, codes: np.ndarray) -> Optional[np.ndarray]:
        """The order to admit requests with expert codes ``codes`` in,
        as indices into them, or None to keep arrival order. Codes only
        name classes: any numbering of the same classes gives the same
        permutation."""
        raise NotImplementedError

    def order(self, requests: Sequence["Request"]) -> List["Request"]:
        """``requests`` in admission order (:meth:`permutation`)."""
        order = self.permutation(expert_codes(requests)[0])
        return list(requests) if order is None else take(requests, order)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FifoScheduler(Scheduler):
    """Arrival order — the historical admission behaviour, untouched."""

    name = "fifo"

    def permutation(self, codes: np.ndarray) -> None:
        return None


class ExpertReorderScheduler(Scheduler):
    """Batch the backlog by expert to amortize tier switches (CoServe).

    The :func:`affinity_schedule` reorder (:func:`window_order`) with
    a long horizon: where the node
    policy's ``window`` bounds per-request delay (fairness), the
    admission horizon trades that fairness for switch amortization —
    under a constrained HBM (or DDR) budget, a run of same-expert
    requests turns k misses into one promotion plus k-1 hits, which is
    the whole point of serving a CoE from less memory than its working
    set.
    """

    name = "expert_reorder"

    def __init__(self, horizon: int = 256) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.horizon = horizon

    def permutation(self, codes: np.ndarray) -> np.ndarray:
        return window_order(codes, self.horizon)

    def __repr__(self) -> str:
        return f"ExpertReorderScheduler(horizon={self.horizon})"


#: What the engines accept wherever a scheduler is expected: a name, an
#: enum member, an instance, a zero-arg factory, or None (FIFO).
SchedulerLike = Optional[object]

#: Every scheduler configurable by name.
SCHEDULERS = SchedulerName.values()

_SCHEDULER_FACTORIES = {
    SchedulerName.FIFO: FifoScheduler,
    SchedulerName.EXPERT_REORDER: ExpertReorderScheduler,
}


def make_scheduler(spec: SchedulerLike = None) -> Scheduler:
    """Coerce a scheduler spec into a :class:`Scheduler` instance.

    Accepts ``None`` (FIFO, the historical behaviour), a name or
    :class:`SchedulerName` member, an existing instance (returned
    as-is), or a zero-arg factory returning one.
    """
    if spec is None:
        return FifoScheduler()
    if isinstance(spec, Scheduler):
        return spec
    if isinstance(spec, (str, SchedulerName)):
        return _SCHEDULER_FACTORIES[SchedulerName.coerce(spec)]()
    if callable(spec):
        scheduler = spec()
        if not isinstance(scheduler, Scheduler):
            raise TypeError(
                f"scheduler factory returned {type(scheduler).__name__}, "
                "expected a Scheduler"
            )
        return scheduler
    raise TypeError(
        f"cannot make a scheduler from {spec!r}; expected a name "
        f"({', '.join(map(repr, SCHEDULERS))}), a Scheduler, or a factory"
    )


@dataclass(frozen=True)
class RequestGroup:
    """A run of same-expert requests served as one batched generation.

    ``phase_key`` is everything the group's phase times depend on:
    ``(expert name, batch, longest prompt, longest output)`` — requests
    in a group may differ in lengths, and the batch pads to the longest
    prompt and generation (standard static-batching cost). The
    constructor computes it once, into a slot, so the serving engine's
    hot paths (routing, admission, lowering, the drain loop, backlog
    estimates) read a plain attribute. It is not a field: the generated
    ``__eq__``/``__hash__``/``repr`` compare and show ``expert`` and
    ``requests`` only. A group of plain :class:`Request` objects (or an
    empty one) has no shape; it constructs, and reading its
    ``phase_key`` raises the error computing the key raises.
    """

    __slots__ = ("expert", "requests", "phase_key")

    expert: ExpertProfile
    requests: tuple

    def __init__(self, expert: ExpertProfile, requests: tuple) -> None:
        # Frozen: every slot is written through object.__setattr__.
        _set = object.__setattr__
        _set(self, "expert", expert)
        _set(self, "requests", requests)
        try:
            key = _phase_key(expert, requests)
        except (AttributeError, ValueError):
            return
        _set(self, "phase_key", key)

    def __getattr__(self, name: str):
        # Only reached for an unset slot or a missing name: a shapeless
        # group's key read re-raises the error of computing it.
        if name == "phase_key":
            return _phase_key(self.expert, self.requests)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __reduce__(self):
        # Slots of a frozen class cannot be restored by attribute
        # assignment; rebuild through the constructor instead.
        return type(self), (self.expert, self.requests)

    @property
    def batch(self) -> int:
        return len(self.requests)


def _phase_key(expert: ExpertProfile, requests: tuple) -> tuple:
    if len(requests) == 1:
        # Most groups hold one request; skip the two max() scans.
        only = requests[0]
        return (expert.name, 1, only.prompt_tokens, only.output_tokens)
    return (
        expert.name,
        len(requests),
        max(map(_PROMPT_TOKENS, requests)),
        max(map(_OUTPUT_TOKENS, requests)),
    )


def coalesce_groups(
    schedule: Sequence[Request], max_batch: int = 8
) -> List[RequestGroup]:
    """Merge *consecutive* same-expert requests into batched groups.

    One group pays one expert switch and one batched prefill/decode
    instead of ``batch`` batch-of-one generations. Only adjacent requests
    merge (reordering is the scheduler's job — see
    :func:`affinity_schedule`), and groups are capped at ``max_batch`` so
    the batched roofline stays within the platform's calibrated regime:
    each maximal same-expert run splits into ``max_batch``-sized groups
    (:func:`group_starts`).
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    codes, _ = expert_codes(schedule)
    starts = group_starts(codes, max_batch).tolist()
    return [
        RequestGroup(schedule[lo].expert, tuple(schedule[lo:hi]))
        for lo, hi in zip(starts, starts[1:] + [len(schedule)])
    ]


def release_times(arrivals: np.ndarray, starts: np.ndarray,
                  policy: Union[str, NodePolicy], window: int) -> np.ndarray:
    """When each group's requests have arrived and no later request can
    join it: the live engine's admission instants.

    ``arrivals`` are ``arrival_s`` in grouped order and ``starts`` where
    each group begins (:func:`group_starts`). The window reorder acts
    within chunks of ``R = window`` requests (``R = 1`` under ``fifo``),
    so a group ending (exclusively) at ``e`` of ``n`` is final once the
    chunk holding ``e`` is in: the first ``min(ceil((e + 1) / R) * R,
    n)`` requests, the same in either order. It is released at the latest of
    their arrivals, as a clock that never runs backwards reaches it.
    """
    n = len(arrivals)
    chunk = 1 if NodePolicy.coerce(policy) is NodePolicy.FIFO else window
    ends = np.append(starts[1:], n)
    pushes = np.minimum(-(-(ends + 1) // chunk) * chunk, n)
    return np.maximum.accumulate(arrivals)[pushes - 1]


# ----------------------------------------------------------------------
# Speculative prefetch
# ----------------------------------------------------------------------


class ExpertPredictor:
    """First-order Markov predictor over expert transitions.

    The paper's CoE pipeline is explicitly sequential: "Outputs from one
    expert determine which expert(s) to execute next" (Section I), so the
    strongest signal for the *next* expert is the identity of the current
    one. The predictor learns transition counts (prev -> next) with a
    global-frequency fallback, and can rank all known experts so callers
    can pick the best candidate that is *not* already HBM-resident — the
    only kind of guess whose prefetch hides a switch.
    """

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self._transitions: Dict[str, Counter] = {}
        self._last_seen: Dict[str, int] = {}
        self._clock = 0
        self._prev: Optional[str] = None
        self._experts: Dict[str, ExpertProfile] = {}

    def observe(self, expert: ExpertProfile) -> None:
        """Record one routing decision (and the transition into it)."""
        self._clock += 1
        self._counts[expert.name] += 1
        self._last_seen[expert.name] = self._clock
        self._experts[expert.name] = expert
        if self._prev is not None:
            transitions = self._transitions.get(self._prev)
            if transitions is None:
                transitions = self._transitions[self._prev] = Counter()
            transitions[expert.name] += 1
        self._prev = expert.name

    def observe_run(self, experts: Sequence[ExpertProfile]) -> None:
        """Bulk :meth:`observe` of a run of consecutive routing decisions.

        The columnar drain's batch path: leaves the predictor in exactly
        the state n scalar ``observe`` calls would (counts summed per
        name, ``last_seen`` at each name's final clock tick, transition
        pairs — including the edge from the previous run's tail —
        counted in bulk). Nothing reads predictor state mid-run by
        construction (rankings are only consulted at prefetch/eviction
        decision points, which end a run), so the intermediate states a
        scalar sequence would pass through are unobservable.
        """
        if not experts:
            return
        names = [e.name for e in experts]
        clock = self._clock
        self._last_seen.update(
            zip(names, range(clock + 1, clock + len(names) + 1))
        )
        self._clock = clock + len(names)
        self._counts.update(names)
        self._experts.update(zip(names, experts))
        chain = names if self._prev is None else [self._prev] + names
        if len(chain) > 1:
            transitions = self._transitions
            for (prev, nxt), count in Counter(
                zip(chain, chain[1:])
            ).items():
                bucket = transitions.get(prev)
                if bucket is None:
                    bucket = transitions[prev] = Counter()
                bucket[nxt] += count
        self._prev = names[-1]

    @property
    def known_names(self) -> KeysView[str]:
        """Names of every expert observed so far: the candidate set
        :meth:`iter_candidates` ranks (a live read-only view)."""
        return self._experts.keys()

    def _iter_ranked_names(self) -> Iterator[str]:
        """Yield expert names most-likely-next first, lazily.

        The global-frequency fallback ranking (a sort over *every* known
        expert) is only computed if a consumer exhausts the
        transition-ranked head — the overlap prefetcher usually accepts
        one of the first few candidates, so the common case pays one
        small sort instead of two full ones.
        """
        def global_key(name: str):
            return (self._counts[name], self._last_seen[name])

        head: List[str] = []
        if self._prev is not None and self._prev in self._transitions:
            transitions = self._transitions[self._prev]
            head = sorted(
                transitions,
                key=lambda n: (transitions[n], global_key(n)),
                reverse=True,
            )
            yield from head
        seen = set(head)
        for name in sorted(self._counts, key=global_key, reverse=True):
            if name not in seen:
                yield name

    def _ranked_names(self) -> List[str]:
        return list(self._iter_ranked_names())

    def predict(self) -> Optional[ExpertProfile]:
        """Single best guess for the next expert (None without history)."""
        return next(
            (self._experts[n] for n in self._iter_ranked_names()), None
        )

    def candidates(self) -> List[ExpertProfile]:
        """All known experts, most-likely-next first."""
        return [self._experts[name] for name in self._ranked_names()]

    def iter_candidates(self) -> Iterator[ExpertProfile]:
        """Lazy :meth:`candidates`: same order, ranking computed on
        demand — the cheap path for consumers that stop at the first
        acceptable candidate."""
        return (self._experts[name] for name in self._iter_ranked_names())
