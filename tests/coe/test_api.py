"""The unified serving facade: ServeConfig, engine choice, deprecation."""

import dataclasses
import warnings

import pytest

import repro
from repro.coe.api import (
    ServeConfig,
    ServeModeError,
    Server,
    build_server,
    serve,
)
from repro.coe.cluster_engine import ClusterEngine
from repro.coe.engine import ServingEngine, zipf_request_stream
from repro.coe.expert import build_samba_coe_library
from repro.coe.policies import ClusterPolicy, NodePolicy, PolicyEnum, ServeMode
from repro.coe.report import ServeReport
from repro.coe.serving import ExpertServer
from repro.load import ArrivalSpec
from repro.sim.faults import FaultSchedule, NodeCrash
from repro.systems.platforms import sn40l_platform


@pytest.fixture(scope="module")
def library():
    return build_samba_coe_library(16)


@pytest.fixture(scope="module")
def stream(library):
    return zipf_request_stream(library, 24, alpha=1.1, seed=7)


class TestPolicyEnums:
    def test_members_and_values(self):
        assert NodePolicy.values() == ("fifo", "affinity", "overlap")
        assert ClusterPolicy.values() == ("least_loaded", "affinity", "steal")

    def test_strings_coerce(self):
        assert NodePolicy.coerce("overlap") is NodePolicy.OVERLAP
        assert ClusterPolicy.coerce("steal") is ClusterPolicy.STEAL

    def test_members_pass_through(self):
        assert NodePolicy.coerce(NodePolicy.FIFO) is NodePolicy.FIFO

    def test_error_lists_valid_members(self):
        with pytest.raises(ValueError) as err:
            NodePolicy.coerce("bogus")
        message = str(err.value)
        assert "unknown NodePolicy 'bogus'" in message
        for value in NodePolicy.values():
            assert value in message

    def test_str_is_the_wire_value(self):
        assert str(NodePolicy.OVERLAP) == "overlap"
        assert f"{ClusterPolicy.STEAL}" == "steal"

    def test_both_are_policy_enums(self):
        assert issubclass(NodePolicy, PolicyEnum)
        assert issubclass(ClusterPolicy, PolicyEnum)


class TestServeConfig:
    def test_defaults(self):
        config = ServeConfig()
        assert config.policy is NodePolicy.OVERLAP
        assert config.cluster_policy is ClusterPolicy.STEAL
        assert config.num_nodes == 1
        assert not config.wants_cluster

    def test_strings_coerce_to_enums(self):
        config = ServeConfig(policy="fifo", cluster_policy="affinity")
        assert config.policy is NodePolicy.FIFO
        assert config.cluster_policy is ClusterPolicy.AFFINITY

    def test_fault_specs_coerce_to_schedule(self):
        config = ServeConfig(num_nodes=4, faults=["node1:0.5"])
        assert isinstance(config.faults, FaultSchedule)
        assert config.faults.crashes == (NodeCrash(node=1, at_s=0.5),)

    def test_unknown_policy_rejected_with_members(self):
        with pytest.raises(ValueError, match="unknown NodePolicy.*overlap"):
            ServeConfig(policy="turbo")
        with pytest.raises(ValueError, match="unknown ClusterPolicy.*steal"):
            ServeConfig(cluster_policy="turbo")

    @pytest.mark.parametrize("kwargs", [
        {"num_nodes": 0},
        {"max_batch": 0},
        {"window": 0},
        {"heartbeat_s": 0.0},
        {"deadline_s": 0.0},
        # Counts are integers: a bool or a non-integral value is refused.
        {"num_nodes": 2.5},
        {"num_nodes": "2"},
        {"num_nodes": True},
        {"max_batch": 2.5},
        {"window": True},
    ])
    def test_bad_numbers_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, match", [
        # A NaN deadline passes ``<= 0`` and would shed every request.
        ({"deadline_s": float("nan")}, "deadline_s"),
        ({"heartbeat_s": float("nan")}, "heartbeat_s"),
        ({"heartbeat_s": float("inf")}, "heartbeat_s"),
    ])
    def test_non_finite_and_empty_limits_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ServeConfig(num_nodes=2, **kwargs)

    def test_wants_cluster_on_nodes_faults_or_deadline(self):
        assert ServeConfig(num_nodes=2).wants_cluster
        assert ServeConfig(faults=["node0:1.0"], num_nodes=2).wants_cluster
        assert ServeConfig(deadline_s=1.0).wants_cluster
        assert not ServeConfig().wants_cluster

    def test_with_revalidates(self):
        config = ServeConfig().with_(num_nodes=4)
        assert config.num_nodes == 4
        with pytest.raises(ValueError):
            config.with_(num_nodes=-1)

    def test_pipelined_promotions_reject_overlap_policy(self):
        # overlap's speculative prefetches ignore DMA occupancy; sharing
        # the prefetch lane with pipelined promotions would double-book
        # the DMA, so the combination fails at config time.
        with pytest.raises(ValueError, match="overlap"):
            ServeConfig(policy="overlap", pipeline_promotions=True)
        config = ServeConfig(policy="fifo", pipeline_promotions=True)
        assert config.pipeline_promotions

    def test_to_dict_is_json_friendly(self):
        import json
        config = ServeConfig(policy="fifo", num_nodes=2,
                             faults=["node1:0.5"], deadline_s=2.0)
        payload = json.loads(json.dumps(config.to_dict()))
        assert payload["policy"] == "fifo"
        assert payload["faults"] == ["crash:node1:0.5"]
        assert payload["deadline_s"] == 2.0


class TestServeConfigSerialization:
    """to_dict / from_dict cover every field — none can silently drop."""

    def test_to_dict_covers_every_field(self):
        # A field added to ServeConfig without a to_dict entry would
        # silently vanish from provenance dumps; this pins the contract.
        payload = ServeConfig().to_dict()
        for f in dataclasses.fields(ServeConfig):
            assert f.name in payload, f"to_dict() is missing {f.name!r}"
        assert set(payload) == {f.name for f in dataclasses.fields(ServeConfig)}

    @pytest.mark.parametrize("config", [
        ServeConfig(),
        ServeConfig(policy="fifo", cluster_policy="affinity",
                    cache_policy="gdsf", num_nodes=4, max_batch=4,
                    window=8, online_replication=False,
                    reserved_hbm_bytes=1 << 30,
                    faults=["node1:0.5", "slow:0:1.0:2.0"],
                    heartbeat_s=0.1, deadline_s=5.0),
        ServeConfig(policy="affinity", cluster_policy="least_loaded",
                    mode="live", num_nodes=2, max_queue=32,
                    time_scale=0.01, drain_timeout_s=5.0,
                    load=ArrivalSpec(process="bursty", rate_rps=10.0,
                                     duration_s=3.0, seed=9)),
        ServeConfig(scheduler="expert_reorder",
                    tier_capacities={"hbm": 1 << 30, "ddr": 1 << 32}),
        ServeConfig(policy="fifo", cache_policy="lookahead",
                    scheduler="expert_reorder",
                    tier_capacities={"hbm": 1 << 30, "ddr": 1 << 31},
                    pipeline_promotions=True),
    ])
    def test_round_trip_is_identity(self, config):
        assert ServeConfig.from_dict(config.to_dict()) == config

    def test_round_trip_survives_json(self):
        import json
        config = ServeConfig(mode="live", policy="affinity",
                             cluster_policy="least_loaded", max_queue=8,
                             load=ArrivalSpec(rate_rps=5.0, duration_s=1.0))
        wire = json.loads(json.dumps(config.to_dict()))
        assert ServeConfig.from_dict(wire) == config

    def test_from_dict_revalidates(self):
        payload = ServeConfig().to_dict()
        payload["num_nodes"] = 0
        with pytest.raises(ValueError):
            ServeConfig.from_dict(payload)

    def test_load_dict_coerces_to_spec(self):
        spec = ArrivalSpec(rate_rps=7.0, duration_s=2.0, seed=3)
        config = ServeConfig(load=spec.to_dict())
        assert config.load == spec


class TestSchedulerAndTierCapacities:
    """The constrained-memory knobs: typed, validated, serialized."""

    def test_scheduler_string_coerces_to_enum(self):
        from repro.coe.policies import SchedulerName

        config = ServeConfig(scheduler="expert_reorder")
        assert config.scheduler is SchedulerName.EXPERT_REORDER
        assert config.to_dict()["scheduler"] == "expert_reorder"

    def test_unknown_scheduler_rejected_with_members(self):
        with pytest.raises(ValueError,
                           match="'fifo', 'expert_reorder'"):
            ServeConfig(scheduler="priority")

    def test_with_changes_scheduler(self):
        config = ServeConfig().with_(scheduler="expert_reorder")
        assert config.scheduler.value == "expert_reorder"

    def test_tier_capacities_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            ServeConfig(tier_capacities={"sram": 1 << 20})

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "big"])
    def test_tier_capacities_non_positive_int_rejected(self, bad):
        with pytest.raises(ValueError):
            ServeConfig(tier_capacities={"hbm": bad})

    def test_tier_capacities_ddr_must_cover_hbm(self):
        with pytest.raises(ValueError, match="DDR"):
            ServeConfig(tier_capacities={"hbm": 1 << 30, "ddr": 1 << 20})

    @pytest.mark.parametrize("bad", [-1, -10**12, 1.5, True, "big"])
    def test_reserved_hbm_bytes_non_negative_int(self, bad):
        # A negative reservation would grow the HBM expert region past
        # the device's HBM.
        with pytest.raises(ValueError, match="reserved_hbm_bytes"):
            ServeConfig(reserved_hbm_bytes=bad)
        assert ServeConfig(reserved_hbm_bytes=0).reserved_hbm_bytes == 0

    def test_hbm_override_conflicts_with_reserved_bytes(self):
        with pytest.raises(ValueError, match="reserved_hbm_bytes"):
            ServeConfig(reserved_hbm_bytes=1 << 20,
                        tier_capacities={"hbm": 1 << 30})

    def test_tier_capacities_copied_not_aliased(self):
        caps = {"hbm": 1 << 30}
        config = ServeConfig(tier_capacities=caps)
        caps["hbm"] = 0
        assert config.tier_capacities == {"hbm": 1 << 30}

    def test_defaults_are_off(self):
        config = ServeConfig()
        assert config.scheduler.value == "fifo"
        assert config.tier_capacities is None


class TestServeModeErrors:
    """Mode-specific knobs fail typed, in both directions."""

    @pytest.mark.parametrize("kwargs", [
        {"max_queue": 8},
        {"time_scale": 0.5},
        {"drain_timeout_s": 1.0},
        {"max_queue": 8, "time_scale": 0.5, "drain_timeout_s": 1.0},
    ])
    def test_live_only_knobs_rejected_in_sim_mode(self, kwargs):
        with pytest.raises(ServeModeError, match="mode='live'"):
            ServeConfig(**kwargs)

    def test_sim_mode_error_names_the_offending_fields(self):
        with pytest.raises(ServeModeError, match="max_queue.*time_scale"):
            ServeConfig(max_queue=8, time_scale=0.5)

    def test_faults_rejected_in_live_mode(self):
        with pytest.raises(ServeModeError, match="sim"):
            ServeConfig(mode="live", policy="affinity",
                        cluster_policy="least_loaded", num_nodes=2,
                        faults=["node1:0.5"])

    def test_overlap_rejected_in_live_mode(self):
        with pytest.raises(ServeModeError, match="overlap"):
            ServeConfig(mode="live", cluster_policy="least_loaded")

    def test_steal_rejected_in_live_multinode(self):
        with pytest.raises(ServeModeError, match="steal"):
            ServeConfig(mode="live", policy="affinity",
                        cluster_policy="steal", num_nodes=2)
        # ...but is harmless on one node (never consulted).
        ServeConfig(mode="live", policy="affinity",
                    cluster_policy="steal", num_nodes=1)

    def test_serve_mode_error_is_a_value_error(self):
        assert issubclass(ServeModeError, ValueError)
        assert repro.ServeModeError is ServeModeError

    def test_mode_coerces_from_string(self):
        assert ServeConfig(mode="sim").mode is ServeMode.SIM
        cfg = ServeConfig(mode="live", policy="affinity",
                          cluster_policy="least_loaded")
        assert cfg.mode is ServeMode.LIVE

    def test_token_callback_rejected_in_sim_mode(self):
        library = build_samba_coe_library(4)
        with pytest.raises(ServeModeError, match="token_callback"):
            build_server(sn40l_platform, library, ServeConfig(),
                         token_callback=lambda event: None)

    @pytest.mark.parametrize("kwargs", [
        {"max_queue": 0},
        {"time_scale": 0.0},
        {"drain_timeout_s": 0.0},
        # max_queue is a count: a bool or a non-integral value is refused.
        pytest.param({"max_queue": 2.5}, id="max_queue-float"),
        pytest.param({"max_queue": True}, id="max_queue-bool"),
        # NaN passes ``<= 0``; an infinite time scale never wakes.
        pytest.param({"time_scale": float("nan")}, id="time_scale-nan"),
        pytest.param({"time_scale": float("inf")}, id="time_scale-inf"),
        pytest.param({"drain_timeout_s": float("nan")},
                     id="drain_timeout_s-nan"),
    ])
    def test_bad_live_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(mode="live", policy="affinity",
                        cluster_policy="least_loaded", **kwargs)


class TestBuildServer:
    def test_single_node_builds_serving_engine(self, library):
        server = build_server(sn40l_platform, library, ServeConfig())
        assert isinstance(server, ServingEngine)
        assert isinstance(server, Server)

    def test_cluster_config_builds_cluster_engine(self, library):
        server = build_server(
            sn40l_platform, library, ServeConfig(num_nodes=4)
        )
        assert isinstance(server, ClusterEngine)
        assert isinstance(server, Server)

    def test_faults_force_the_cluster_engine(self, library):
        server = build_server(
            sn40l_platform, library,
            ServeConfig(num_nodes=2, faults=["node1:0.5"]),
        )
        assert isinstance(server, ClusterEngine)

    def test_live_config_builds_live_engine(self, library):
        from repro.coe.live_engine import LiveEngine

        server = build_server(
            sn40l_platform, library,
            ServeConfig(mode="live", policy="affinity",
                        cluster_policy="least_loaded"),
        )
        assert isinstance(server, LiveEngine)
        assert isinstance(server, Server)

    def test_platform_instance_or_factory(self, library):
        for platform in (sn40l_platform, sn40l_platform()):
            assert isinstance(
                build_server(platform, library, ServeConfig()),
                ServingEngine,
            )
            assert isinstance(
                build_server(platform, library, ServeConfig(num_nodes=2)),
                ClusterEngine,
            )


class TestServe:
    def test_single_node_returns_engine_report(self, library, stream):
        report = serve(sn40l_platform, library, stream)
        assert isinstance(report, ServeReport)
        assert report.requests == len(stream)

    def test_cluster_returns_cluster_report(self, library, stream):
        report = serve(
            sn40l_platform, library, stream, ServeConfig(num_nodes=2)
        )
        assert isinstance(report, ServeReport)
        assert report.requests == len(stream)

    def test_exposed_at_top_level(self, library, stream):
        assert repro.serve is serve
        assert repro.ServeConfig is ServeConfig
        report = repro.serve(
            sn40l_platform, library, stream, repro.ServeConfig(num_nodes=2)
        )
        assert report.requests == len(stream)

    def test_generates_requests_from_config_load(self, library):
        # Live mode: the simulator rejects arrivals after t=0 (below).
        spec = ArrivalSpec(rate_rps=40.0, duration_s=1.0, seed=5)
        report = serve(sn40l_platform, library, config=ServeConfig(
            load=spec, mode="live", policy="affinity",
            cluster_policy="least_loaded", time_scale=0.01))
        assert isinstance(report, ServeReport)
        assert report.requests > 0

    def test_sim_mode_rejects_later_arrivals(self, library, stream):
        """The simulator serves a trace as one t=0 backlog, so an
        ``arrival_s > 0`` would report a negative latency: typed error,
        from given requests and from ``config.load`` alike."""
        spec = ArrivalSpec(rate_rps=40.0, duration_s=1.0, seed=5)
        with pytest.raises(ServeModeError, match="arrival_s"):
            serve(sn40l_platform, library, config=ServeConfig(load=spec))
        late = [dataclasses.replace(r, arrival_s=0.5) for r in stream[:2]]
        for config in (ServeConfig(), ServeConfig(num_nodes=2)):
            with pytest.raises(ServeModeError, match="arrival_s"):
                serve(sn40l_platform, library, stream[2:] + late, config)
        # A t=0 backlog still serves.
        assert serve(sn40l_platform, library, stream).requests == len(stream)

    def test_requests_required_without_load(self, library):
        with pytest.raises(ValueError, match="requests"):
            serve(sn40l_platform, library, config=ServeConfig())

    def test_matches_direct_engine_run(self, library, stream):
        via_api = serve(sn40l_platform, library, stream,
                        ServeConfig(policy="overlap"))
        direct = ServingEngine(
            sn40l_platform(), library, policy="overlap"
        ).run(stream)
        assert via_api.makespan_s == pytest.approx(direct.makespan_s)

    @pytest.mark.parametrize("config", [
        ServeConfig(),
        ServeConfig(num_nodes=2),
        ServeConfig(policy="affinity", cluster_policy="least_loaded",
                    num_nodes=2, mode="live", time_scale=0.001),
    ], ids=["single-node", "cluster", "live"])
    def test_every_mode_reports_one_schema(self, library, stream, config):
        import json

        report = serve(sn40l_platform, library, stream, config)
        payload = report.to_dict()
        single = serve(sn40l_platform, library, stream).to_dict()
        assert set(payload) == set(single)
        assert json.loads(json.dumps(payload)) == payload
        assert len(report.nodes) == report.num_nodes == config.num_nodes
        completed_tokens = sum(c.output_tokens for c in report.completed)
        assert completed_tokens > 0
        assert report.goodput_tokens_per_second == (
            completed_tokens / report.makespan_s
        )


class TestDeprecationShim:
    def test_expert_server_does_not_warn(self, library):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ExpertServer(sn40l_platform(), library)
