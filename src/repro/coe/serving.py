"""End-to-end Samba-CoE serving: router -> expert switch -> generation.

Implements the paper's Figure 9 flow on any :class:`Platform`:

1. run the router (always HBM-resident) over the incoming prompt batch,
2. activate the required experts (DDR->HBM on SN40L; host->HBM on DGX),
3. run each (prompt, expert) pair sequentially — batch samples are
   independent and may need different experts (paper Section VI-B).

Latency is broken into router / switch / execution components, which is
exactly the paper's Figure 1 decomposition.

:class:`ExpertServer` is this latency path's cost model; the throughput
engines (:mod:`repro.coe.engine`, :mod:`repro.coe.cluster_engine`) embed
one per node for phase timings and the LRU runtime. Serving itself goes
through the unified facade, :func:`repro.serve` (see
:mod:`repro.coe.api` and ``docs/SERVING_API.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.coe.expert import ExpertLibrary, ExpertProfile
from repro.coe.policies import validate
from repro.coe.router import Router, RoutingDecision
from repro.coe.runtime import CoERuntime
from repro.memory.hierarchy import MemoryHierarchy
from repro.systems.platforms import Platform
from repro.units import GiB


@dataclass(frozen=True)
class RequestLatency:
    """Latency breakdown of one served prompt."""

    expert: str
    router_s: float
    switch_s: float
    prefill_s: float
    decode_s: float

    @property
    def execute_s(self) -> float:
        """Model execution (the paper's non-switching component)."""
        return self.router_s + self.prefill_s + self.decode_s

    @property
    def total_s(self) -> float:
        return self.router_s + self.switch_s + self.prefill_s + self.decode_s


@dataclass
class ServeResult:
    """Latency of one served batch."""

    platform: str
    requests: List[RequestLatency] = field(default_factory=list)

    @property
    def batch_size(self) -> int:
        return len(self.requests)

    @property
    def total_s(self) -> float:
        return sum(r.total_s for r in self.requests)

    @property
    def switch_s(self) -> float:
        return sum(r.switch_s for r in self.requests)

    @property
    def execute_s(self) -> float:
        return sum(r.execute_s for r in self.requests)

    @property
    def switch_fraction(self) -> float:
        return self.switch_s / self.total_s if self.total_s > 0 else 0.0


class ExpertServer:
    """Serves a CoE on one platform with a policy-cached HBM expert region.

    ``cache_policy`` picks the HBM eviction policy (see
    :mod:`repro.coe.cache`): a name (``"lru"``/``"lfu"``/``"gdsf"``/
    ``"predictive"``), a :class:`~repro.coe.cache.CachePolicy` instance,
    or a zero-arg factory; unset means the paper-faithful LRU.

    ``tier_capacities`` overrides the node's tier budgets by name:
    ``"hbm"`` sizes the expert region directly (mutually exclusive with
    ``reserved_hbm_bytes``, which sizes it by subtraction), ``"ddr"``
    bounds the capacity tier and puts NVMe below it, unbounded unless
    ``"nvme"`` caps it too. A library the budgets cannot hold raises
    :class:`~repro.memory.CapacityError` at construction.
    """

    def __init__(
        self,
        platform: Platform,
        library: ExpertLibrary,
        router: Optional[Router] = None,
        reserved_hbm_bytes: Optional[int] = None,
        cache_policy=None,
        tier_capacities: Optional[Dict[str, int]] = None,
    ) -> None:
        self.platform = platform
        self.library = library
        self.router = router or Router(library)
        checked = validate(reserved_hbm_bytes=reserved_hbm_bytes,
                           tier_capacities=tier_capacities)
        reserved_hbm_bytes = checked["reserved_hbm_bytes"]
        caps = checked["tier_capacities"] or {}
        hbm_override = caps.get("hbm")
        if hbm_override is not None:
            # The ladder sweeps capacities independent of the concrete
            # platform (a what-if region may exceed physical HBM), so the
            # implied reservation just floors at zero.
            budget = hbm_override
            reserved_hbm_bytes = max(
                0, platform.hbm_capacity_bytes - hbm_override
            )
        else:
            if reserved_hbm_bytes is None:
                # Router weights stay pinned in HBM; reserve headroom for
                # the KV cache and activations as well (paper: "The router
                # and KV-cache is always in HBM").
                reserved_hbm_bytes = self.router.model.weight_bytes + 8 * GiB
            budget = platform.hbm_capacity_bytes - reserved_hbm_bytes
            if budget <= 0:
                raise ValueError(
                    f"{platform.name}: reservation {reserved_hbm_bytes} "
                    "exceeds HBM"
                )
        self.reserved_hbm_bytes = reserved_hbm_bytes
        # The runtime's DDR is inclusive (HBM residents keep their home
        # copies there) where the platform's second tier is exclusive, so
        # the default DDR budget is the region plus the second tier: the
        # inclusive form of the HBM + second-tier sum that
        # Platform.max_hosted_experts counts.
        ddr = caps.get("ddr", budget + platform.second_tier_capacity_bytes)
        # NVMe backs a capped DDR, unbounded unless it is capped too; with
        # neither cap the node has no NVMe tier.
        nvme = caps.get("nvme", None if "ddr" in caps else 0)
        self.hierarchy = MemoryHierarchy.from_platform(
            platform
        ).with_capacities({"hbm": budget, "ddr": ddr, "nvme": nvme})
        self.runtime = CoERuntime(
            library.experts, self.hierarchy, policy=cache_policy
        )

    # ------------------------------------------------------------------
    def router_time(self, batch: int, prompt_tokens: int) -> float:
        """Router latency: one batched prefill plus a classification step."""
        prefill = self.platform.prefill_time(
            self.router.model, batch=batch, seq=prompt_tokens
        )
        readout = self.platform.decode_token_time(
            self.router.model, batch=batch, context=prompt_tokens
        )
        return prefill + readout

    def expert_time(
        self,
        expert: ExpertProfile,
        output_tokens: int,
        prompt_tokens: int,
        batch: int = 1,
    ) -> tuple:
        """(prefill_s, decode_s) of one batched expert generation.

        Decode over the growing context uses the closed-form aggregate
        (:meth:`Platform.decode_span_time`) instead of a per-token loop.
        """
        prefill = self.platform.prefill_time(expert.model, batch, prompt_tokens)
        decode = self.platform.decode_span_time(
            expert.model, output_tokens, batch, prompt_tokens
        )
        return prefill, decode

    # ------------------------------------------------------------------
    def serve_prompts(
        self,
        prompts: Sequence[str],
        output_tokens: int = 20,
        prompt_tokens: int = 256,
    ) -> ServeResult:
        """Serve a batch of text prompts through router + experts."""
        if not prompts:
            raise ValueError("need at least one prompt")
        decisions = self.router.route_batch(prompts)
        return self._serve_decisions(decisions, output_tokens, prompt_tokens)

    def serve_experts(
        self,
        experts: Sequence[ExpertProfile],
        output_tokens: int = 20,
        prompt_tokens: int = 256,
    ) -> ServeResult:
        """Serve requests with pre-assigned experts (synthetic workloads).

        Used by the Figure 12 sweep, where requests draw uniformly over an
        expert population and the routing function itself is not under
        test (its latency still is).
        """
        if not experts:
            raise ValueError("need at least one expert request")
        decisions = [
            RoutingDecision(prompt="", domain=e.domain, expert=e, score=1.0)
            for e in experts
        ]
        return self._serve_decisions(decisions, output_tokens, prompt_tokens)

    def _serve_decisions(
        self,
        decisions: List[RoutingDecision],
        output_tokens: int,
        prompt_tokens: int,
    ) -> ServeResult:
        batch = len(decisions)
        router_total = self.router_time(batch, prompt_tokens)
        router_share = router_total / batch
        result = ServeResult(platform=self.platform.name)
        for decision in decisions:
            switch = self.runtime.activate(decision.expert)
            prefill, decode = self.expert_time(
                decision.expert, output_tokens, prompt_tokens
            )
            result.requests.append(
                RequestLatency(
                    expert=decision.expert.name,
                    router_s=router_share,
                    switch_s=switch.time_s,
                    prefill_s=prefill,
                    decode_s=decode,
                )
            )
        return result


__all__ = ["ExpertServer", "RequestLatency", "ServeResult"]
