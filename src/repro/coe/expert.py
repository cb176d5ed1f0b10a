"""Expert model descriptors and the Samba-CoE expert library.

Samba-CoE (paper Section II) is 150 independently fine-tuned Llama2-7B
experts plus a router — over a trillion total parameters. Each expert is
an independent artifact: trained, compiled, and served on its own
lifecycle (Section V-B), which is what the CoE runtime's dynamic
linking/loading model exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.models.catalog import LLAMA2_7B
from repro.models.transformer import TransformerConfig

#: The expert domains of the deployed Samba-CoE (coding, math, language
#: translation, and other specialisations from the open-source community).
DEFAULT_DOMAINS = (
    "code",
    "math",
    "translation",
    "legal",
    "medical",
    "finance",
    "science",
    "writing",
    "chat",
    "summarization",
)


@dataclass(frozen=True)
class ExpertProfile:
    """One expert model in the composition."""

    name: str
    domain: str
    model: TransformerConfig = LLAMA2_7B
    #: Fraction of the expert's device state that is mutable (activations,
    #: KV scratch). Weights are read-only, so on eviction only this
    #: fraction must be copied back to DDR (paper Section V-B).
    mutable_fraction: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.mutable_fraction <= 1.0:
            raise ValueError(
                f"{self.name}: mutable_fraction must be in [0,1], "
                f"got {self.mutable_fraction}"
            )
        # Sized once: the model is frozen, and the cache, tier and cost
        # paths read this on every decision. Set here rather than lazily
        # so every profile's instance dict keeps the same key layout.
        object.__setattr__(self, "_weight_bytes", self.model.weight_bytes)

    @property
    def weight_bytes(self) -> int:
        return self._weight_bytes

    @property
    def copyback_bytes(self) -> int:
        """Bytes written back to DDR when this expert is evicted."""
        return round(self.weight_bytes * self.mutable_fraction)


@dataclass
class ExpertLibrary:
    """The full set of experts available to the CoE."""

    experts: List[ExpertProfile] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [e.name for e in self.experts]
        if len(names) != len(set(names)):
            raise ValueError("duplicate expert names in library")
        self._by_name: Dict[str, ExpertProfile] = {e.name: e for e in self.experts}
        self._by_domain: Dict[str, List[ExpertProfile]] = {}
        for expert in self.experts:
            self._by_domain.setdefault(expert.domain, []).append(expert)

    def add(self, expert: ExpertProfile) -> None:
        """Register one more expert (hot-expert replication, growth).

        Keeps the name and domain indexes coherent, unlike appending to
        ``experts`` and re-running ``__post_init__`` by hand.
        """
        if expert.name in self._by_name:
            raise ValueError(f"duplicate expert name {expert.name!r}")
        self.experts.append(expert)
        self._by_name[expert.name] = expert
        self._by_domain.setdefault(expert.domain, []).append(expert)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.experts)

    def __getitem__(self, name: str) -> ExpertProfile:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no expert named {name!r}") from None

    @property
    def domains(self) -> List[str]:
        return sorted(self._by_domain)

    def for_domain(self, domain: str) -> List[ExpertProfile]:
        try:
            return list(self._by_domain[domain])
        except KeyError:
            raise KeyError(f"no experts in domain {domain!r}") from None

    @property
    def total_params(self) -> int:
        return sum(e.model.param_count for e in self.experts)

    @property
    def total_weight_bytes(self) -> int:
        return sum(e.weight_bytes for e in self.experts)


def build_heterogeneous_library(
    size_mix: Sequence[tuple] = None,
    domains: Sequence[str] = DEFAULT_DOMAINS,
) -> ExpertLibrary:
    """A library of experts with *different architectures and sizes*.

    The paper: "the router and expert models do not need to be
    homogeneous - they can be different architectures with different
    numbers of parameters" (Section II). ``size_mix`` is a sequence of
    ``(model_config, count)`` pairs; the default mixes 7B and 13B class
    experts (the common community fine-tune sizes).
    """
    from repro.models.catalog import LLAMA2_7B, LLAMA2_13B, MISTRAL_7B

    if size_mix is None:
        size_mix = ((LLAMA2_7B, 60), (MISTRAL_7B, 60), (LLAMA2_13B, 30))
    experts = []
    idx = 0
    for model, count in size_mix:
        if count < 0:
            raise ValueError(f"negative expert count for {model.name}")
        for _ in range(count):
            domain = domains[idx % len(domains)]
            experts.append(
                ExpertProfile(
                    name=f"expert-{idx:03d}-{model.name}-{domain}",
                    domain=domain,
                    model=model,
                )
            )
            idx += 1
    return ExpertLibrary(experts=experts)


def build_samba_coe_library(
    num_experts: int = 150,
    base_model: TransformerConfig = LLAMA2_7B,
    domains: Sequence[str] = DEFAULT_DOMAINS,
) -> ExpertLibrary:
    """Build a Samba-CoE-like library: ``num_experts`` over ``domains``.

    With the default 150 Llama2-7B experts the library crosses a trillion
    total parameters, matching the deployed system.
    """
    if num_experts < 1:
        raise ValueError(f"num_experts must be >= 1, got {num_experts}")
    if not domains:
        raise ValueError("need at least one domain")
    experts = [
        ExpertProfile(
            name=f"expert-{idx:03d}-{domains[idx % len(domains)]}",
            domain=domains[idx % len(domains)],
            model=base_model,
        )
        for idx in range(num_experts)
    ]
    return ExpertLibrary(experts=experts)
