"""The serving knobs' field table: one declared domain per ServeConfig field.

``repro.coe.policies.FIELDS`` declares each field's type, bounds,
default, mode and JSON encoding once. These tests hold the config, the
engine constructors and docs/SERVING_API.md to that table, and draw
legal and illegal values from each declared domain.
"""

import dataclasses
import enum
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coe.api import ServeConfig
from repro.coe.cluster_engine import ClusterEngine
from repro.coe.engine import ServingEngine
from repro.coe.expert import build_samba_coe_library
from repro.coe.policies import (
    FIELDS,
    LIVE_ONLY,
    TIER_NAMES,
    Choice,
    Count,
    Faults,
    Flag,
    Load,
    Real,
    Tiers,
)
from repro.coe.serving import ExpertServer
from repro.load import ARRIVAL_PROCESSES, ArrivalSpec
from repro.sim.faults import FaultSchedule
from repro.systems.platforms import sn40l_platform

DOC = Path(__file__).resolve().parents[2] / "docs" / "SERVING_API.md"

#: Policies every mode accepts, so one drawn field is the only variable.
BASE = {"policy": "fifo", "cluster_policy": "least_loaded"}

#: A fixed, derandomized example budget per field.
EXAMPLES = settings(max_examples=30, derandomize=True, deadline=None)


def base_for(name):
    """Keyword arguments under which ``name`` takes effect."""
    return dict(BASE, mode="live") if name in LIVE_ONLY else dict(BASE)


# ----------------------------------------------------------------------
# Strategies drawn from a domain's declaration
# ----------------------------------------------------------------------
def _or_none(domain, strategy):
    return st.none() | strategy if domain.default is None else strategy


def legal(domain):
    """Values ``domain`` accepts."""
    if isinstance(domain, Choice):
        members = [m for m in domain.enum if m.value in domain.choices]
        return st.sampled_from(members) | st.sampled_from(domain.choices)
    if isinstance(domain, Count):
        return _or_none(domain, st.integers(domain.minimum, 1 << 40))
    if isinstance(domain, Real):
        reals = st.floats(0, 1e9, exclude_min=True) | st.integers(1, 10**6)
        if not domain.finite:
            reals |= st.just(math.inf)
        return _or_none(domain, reals)
    if isinstance(domain, Flag):
        return st.booleans()
    if isinstance(domain, Tiers):
        return st.none() | st.integers(1, 1 << 40).flatmap(
            lambda hbm: st.fixed_dictionaries({}, optional={
                "hbm": st.just(hbm),
                "ddr": st.integers(hbm, 1 << 42),
                "nvme": st.integers(1, 1 << 44),
            }))
    if isinstance(domain, Faults):
        node, at = st.integers(0, 15), st.floats(0, 1e4)
        spec = (st.builds("node{}:{!r}".format, node, at)
                | st.builds("slow:{}:{!r}:{!r}:{!r}".format, node, at,
                            st.floats(1e-3, 10), st.floats(1, 8))
                | st.builds("copyfail:{}:{!r}:{}".format, node, at,
                            st.integers(1, 5)))
        return st.none() | st.lists(spec, max_size=4)
    if isinstance(domain, Load):
        return st.none() | st.builds(
            ArrivalSpec, process=st.sampled_from(ARRIVAL_PROCESSES),
            rate_rps=st.floats(0.1, 1e4), duration_s=st.floats(0.1, 1e3),
            seed=st.integers(0, 2**31))
    raise AssertionError(f"no strategy for {domain!r}")


def illegal(domain):
    """Values ``domain`` refuses."""
    junk = st.text(max_size=8) | st.lists(st.integers(), max_size=2)
    if isinstance(domain, Choice):
        refused = [m for m in domain.enum if m.value not in domain.choices]
        names = st.text(max_size=12).filter(
            lambda s: s not in domain.enum.values())
        return names | st.integers() | (
            st.sampled_from(refused) if refused else names)
    if isinstance(domain, Count):
        # operator.index refuses every float, integral ones too.
        return (st.integers(max_value=domain.minimum - 1) | st.floats()
                | st.booleans() | junk)
    if isinstance(domain, Real):
        bad = (st.floats(max_value=0) | st.just(math.nan) | st.booleans()
               | junk | st.integers(max_value=0))
        if domain.finite:
            bad |= st.sampled_from([math.inf, -math.inf])
        return bad if domain.default is None else st.none() | bad
    if isinstance(domain, Flag):
        return st.none() | st.integers() | st.floats() | st.text(max_size=5)
    if isinstance(domain, Tiers):
        size = st.integers(max_value=0) | st.booleans() | st.floats()
        return (st.integers() | st.text(max_size=5)
                | st.fixed_dictionaries({"sram": st.integers(1, 9)})
                | st.sampled_from(TIER_NAMES).flatmap(
                    lambda tier: st.fixed_dictionaries({tier: size}))
                | st.integers(2, 1 << 40).map(
                    lambda hbm: {"hbm": hbm, "ddr": hbm - 1}))
    if isinstance(domain, Faults):
        return st.integers() | st.sampled_from(
            [["bogus"], ["node1:-1"], ["slow:0:1.0:0"], ["node1"], [42]])
    if isinstance(domain, Load):
        return st.integers() | st.sampled_from(
            ["abc", {"rate": 5.0}, {"rate_rps": -1.0}, {"process": "x"}])
    raise AssertionError(f"no strategy for {domain!r}")


# ----------------------------------------------------------------------
# The table and the config
# ----------------------------------------------------------------------
class TestTable:
    def test_declares_every_field_in_order(self):
        assert list(FIELDS) == [
            f.name for f in dataclasses.fields(ServeConfig)]

    def test_config_defaults_are_the_declared_defaults(self):
        config = ServeConfig()
        for name, domain in FIELDS.items():
            assert getattr(config, name) == domain.default, name

    def test_default_provenance_is_pinned(self):
        assert ServeConfig().to_dict() == {
            "policy": "overlap", "cluster_policy": "steal",
            "cache_policy": "lru", "scheduler": "fifo",
            "pipeline_promotions": False, "tier_capacities": None,
            "num_nodes": 1, "max_batch": 8, "window": 16,
            "online_replication": True, "reserved_hbm_bytes": None,
            "faults": [], "heartbeat_s": 0.05, "deadline_s": None,
            "mode": "sim", "load": None, "max_queue": None,
            "time_scale": None, "drain_timeout_s": None,
        }

    def test_live_only_fields_declare_what_unset_means(self):
        assert LIVE_ONLY == ("max_queue", "time_scale", "drain_timeout_s")
        assert [FIELDS[name].unset for name in LIVE_ONLY] == [64, 1.0, 30.0]


class TestTypedDomains:
    """Bool and real fields take only their own type."""

    @pytest.mark.parametrize("kwargs, name", [
        ({"online_replication": "false"}, "online_replication"),
        ({"online_replication": 0}, "online_replication"),
        ({"pipeline_promotions": "yes"}, "pipeline_promotions"),
        ({"pipeline_promotions": 1}, "pipeline_promotions"),
        ({"heartbeat_s": True}, "heartbeat_s"),
        ({"heartbeat_s": "0.05"}, "heartbeat_s"),
        ({"deadline_s": True}, "deadline_s"),
        ({"deadline_s": "1.0"}, "deadline_s"),
        ({"mode": "live", "time_scale": True}, "time_scale"),
        ({"mode": "live", "drain_timeout_s": True}, "drain_timeout_s"),
    ], ids=["replication-str", "replication-int", "pipelining-str",
            "pipelining-int", "heartbeat-bool", "heartbeat-str",
            "deadline-bool", "deadline-str", "time_scale-bool",
            "drain_timeout-bool"])
    def test_wrong_type_names_the_field(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            ServeConfig(**dict(BASE, **kwargs))

    def test_reals_take_ints_and_floats(self):
        config = ServeConfig(heartbeat_s=1, deadline_s=2.5)
        assert (config.heartbeat_s, config.deadline_s) == (1, 2.5)

    def test_engines_type_check_too(self):
        library = build_samba_coe_library(4)
        with pytest.raises(ValueError, match="online_replication"):
            ClusterEngine(sn40l_platform, library, 2,
                          online_replication="false")
        with pytest.raises(ValueError, match="pipeline_promotions"):
            ServingEngine(sn40l_platform(), library,
                          pipeline_promotions="yes")


# ----------------------------------------------------------------------
# Drawn from each domain
# ----------------------------------------------------------------------
#: Engine constructors and the keyword each takes a field by. LiveEngine
#: takes only a validated ServeConfig, so it has no field keyword.
ENGINES = {
    "ServingEngine": {
        "policy": "policy", "max_batch": "max_batch", "window": "window",
        "reserved_hbm_bytes": "reserved_hbm_bytes",
        "tier_capacities": "tier_capacities",
        "pipeline_promotions": "pipeline_promotions",
    },
    "ClusterEngine": {
        "num_nodes": "num_nodes", "cluster_policy": "policy",
        "policy": "node_policy", "max_batch": "max_batch",
        "window": "window", "online_replication": "online_replication",
        "reserved_hbm_bytes": "reserved_hbm_bytes", "faults": "faults",
        "heartbeat_s": "heartbeat_s", "deadline_s": "deadline_s",
        "tier_capacities": "tier_capacities",
        "pipeline_promotions": "pipeline_promotions",
    },
    "ExpertServer": {
        "reserved_hbm_bytes": "reserved_hbm_bytes",
        "tier_capacities": "tier_capacities",
    },
}

_LIBRARY = build_samba_coe_library(4)


def _build(engine, keyword, value):
    if engine == "ServingEngine":
        return ServingEngine(sn40l_platform(), _LIBRARY, **{keyword: value})
    if engine == "ExpertServer":
        return ExpertServer(sn40l_platform(), _LIBRARY, **{keyword: value})
    kwargs = {"num_nodes": 2, "node_policy": "fifo", keyword: value}
    return ClusterEngine(sn40l_platform, _LIBRARY, **kwargs)


@pytest.mark.parametrize("name", list(FIELDS))
class TestDrawnFromTheDomain:
    @EXAMPLES
    @given(data=st.data())
    def test_legal_value_round_trips(self, name, data):
        value = data.draw(legal(FIELDS[name]), label=name)
        config = ServeConfig(**dict(base_for(name), **{name: value}))
        assert ServeConfig.from_dict(config.to_dict()) == config
        wire = json.loads(json.dumps(config.to_dict()))
        assert ServeConfig.from_dict(wire) == config

    @EXAMPLES
    @given(data=st.data())
    def test_illegal_value_names_the_field(self, name, data):
        value = data.draw(illegal(FIELDS[name]), label=name)
        with pytest.raises(ValueError, match=re.escape(name)):
            ServeConfig(**dict(base_for(name), **{name: value}))
        for engine, keywords in ENGINES.items():
            if name in keywords:
                with pytest.raises(ValueError, match=re.escape(name)):
                    _build(engine, keywords[name], value)


# ----------------------------------------------------------------------
# docs/SERVING_API.md
# ----------------------------------------------------------------------
def _source(default):
    if isinstance(default, enum.Enum):
        return f"{type(default).__name__}.{default.name}"
    if isinstance(default, FaultSchedule):
        return "FaultSchedule()"
    return repr(default)


def _describe(domain):
    if isinstance(domain, Choice):
        text = " | ".join(map(repr, domain.choices))
    elif isinstance(domain, Count):
        text = f"int >= {domain.minimum}"
    elif isinstance(domain, Real):
        text = "finite real > 0" if domain.finite else "real > 0"
    elif isinstance(domain, Flag):
        text = "bool"
    elif isinstance(domain, Tiers):
        text = "byte budgets by tier: " + ", ".join(TIER_NAMES)
    elif isinstance(domain, Faults):
        text = "FaultSchedule, fault events or spec strings"
    else:
        text = "ArrivalSpec or its dict"
    if domain.default is None:
        text = f"None or {text}"
    if domain.mode is not None:
        text += f"; {domain.mode.value} only, None means {domain.unset!r}"
    return text


def expected_block():
    lines = [f"    {name}={_source(domain.default)},  # {_describe(domain)}"
             for name, domain in FIELDS.items()]
    return "\n".join(["repro.ServeConfig(", *lines, ")"])


def test_serving_api_doc_lists_every_field_with_its_default():
    text = DOC.read_text()
    section = text[text.index("## ServeConfig"):]
    committed = re.search(r"```python\n(.*?)\n```", section, re.S).group(1)
    assert committed == expected_block(), (
        "docs/SERVING_API.md's ServeConfig block differs from "
        "repro.coe.policies.FIELDS; it should read:\n" + expected_block())
