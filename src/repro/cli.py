"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``info`` — the SN40L hardware summary (published-spec check),
- ``models`` — the Table II workload catalogue,
- ``fusion MODEL PHASE`` — fusion/orchestration speedups for one workload,
- ``coe`` — CoE serving comparison across SN40L / DGX A100 / DGX H100,
- ``serve-bench`` — throughput engine benchmark (batching/overlap policies),
- ``cluster-bench`` — multi-node scaling curve (routing/stealing policies
  with online hot-expert replication; optional ``-o`` JSON dump),
- ``footprint`` — nodes required vs expert count (Figure 13),
- ``intensity`` — the Table I operational-intensity analysis,
- ``plan MODEL PHASE`` — print the fused kernel plan (stages/buffers),
- ``trace MODEL PHASE -o FILE`` — write a Perfetto/Chrome trace of the
  kernel schedule; ``trace --serve`` traces a seeded serve-bench run at
  real simulated timestamps instead, and ``trace --cluster`` traces a
  multi-node run with per-node lanes (see docs/OBSERVABILITY.md).

The serving subcommands (``serve-bench``, ``cluster-bench``, ``trace``)
share one parent parser, so ``--platform``, ``--policy`` (node
scheduling), ``--cluster-policy`` (cross-node dispatch), ``--num-nodes``,
``--zipf``, ``-o/--output`` and friends are spelled identically
everywhere, and they all route through :func:`repro.serve`. Cluster
paths additionally take ``--inject-fault NODE:T`` (repeatable;
``slow:``/``copyfail:`` variants too) and ``--deadline`` for the
fault-tolerance machinery of docs/MODEL.md section 8.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.coe.policies import FIELDS, ClusterPolicy, NodePolicy
from repro.memory import CapacityError
from repro.units import fmt_bandwidth, fmt_bytes, fmt_time


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.arch.config import sn40l_node, sn40l_socket

    socket = sn40l_socket()
    node = sn40l_node()
    print("SN40L socket:")
    print(f"  PCUs / PMUs          : {socket.num_pcus} / {socket.num_pmus}")
    print(f"  peak BF16 compute    : {socket.peak_flops / 1e12:.0f} TFLOPS")
    print(f"  on-chip SRAM         : {fmt_bytes(socket.sram_capacity_bytes)} "
          f"@ {fmt_bandwidth(socket.sram_bandwidth)}")
    print(f"  HBM                  : {fmt_bytes(socket.hbm.capacity_bytes)} "
          f"@ {fmt_bandwidth(socket.hbm.bandwidth)}")
    print(f"  DDR                  : {fmt_bytes(socket.ddr.capacity_bytes)} "
          f"@ {fmt_bandwidth(socket.ddr.bandwidth)}")
    print(f"SN40L node ({node.sockets} sockets):")
    print(f"  peak compute         : {node.peak_flops / 1e15:.2f} PFLOPS")
    print(f"  HBM / DDR capacity   : {fmt_bytes(node.hbm_capacity_bytes)} / "
          f"{fmt_bytes(node.ddr_capacity_bytes)}")
    print(f"  DDR->HBM copy path   : "
          f"{fmt_bandwidth(1.05e12)} (calibrated; paper: >1 TB/s)")
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.models.catalog import CATALOG

    print(f"{'model':<16s} {'params':>9s} {'stored':>10s} "
          f"{'layers':>6s} {'hidden':>6s} {'kv':>3s}")
    for name, cfg in sorted(CATALOG.items()):
        print(f"{name:<16s} {cfg.param_count / 1e9:8.2f}B "
              f"{fmt_bytes(cfg.weight_bytes):>10s} {cfg.layers:6d} "
              f"{cfg.hidden:6d} {cfg.kv_heads:3d}")
    return 0


def _cmd_fusion(args: argparse.Namespace) -> int:
    from repro.arch.config import SocketConfig
    from repro.dataflow import fusion
    from repro.models.catalog import get_model
    from repro.models.transformer import decode_graph, prefill_graph, train_graph
    from repro.perf.kernel_cost import ExecutionTarget, Orchestration, cost_plan

    builders = {"prefill": prefill_graph, "decode": decode_graph,
                "train": train_graph}
    try:
        cfg = get_model(args.model)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    seq = min(args.seq, cfg.max_seq)
    graph = builders[args.phase](cfg, args.batch, seq, tp=args.sockets)
    target = ExecutionTarget.from_socket(SocketConfig(), sockets=args.sockets)
    unf = cost_plan(fusion.unfused(graph), target, Orchestration.SOFTWARE)
    fused = fusion.group_by_prefix(graph)
    so = cost_plan(fused, target, Orchestration.SOFTWARE)
    ho = cost_plan(fused, target, Orchestration.HARDWARE)
    print(f"{graph.name} on {args.sockets} socket(s):")
    print(f"  unfused ({unf.num_launches:4d} kernels): {fmt_time(unf.total_s)}")
    print(f"  fused+SO ({so.num_launches:3d} kernels): {fmt_time(so.total_s)} "
          f"({unf.total_s / so.total_s:.2f}x)")
    print(f"  fused+HO ({ho.num_launches:3d} kernels): {fmt_time(ho.total_s)} "
          f"({unf.total_s / ho.total_s:.2f}x)")
    return 0


def _cmd_coe(args: argparse.Namespace) -> int:
    from repro.coe.expert import build_samba_coe_library
    from repro.coe.serving import ExpertServer
    from repro.systems.platforms import (
        dgx_a100_platform,
        dgx_h100_platform,
        sn40l_platform,
    )

    library = build_samba_coe_library(args.experts)
    print(f"CoE: {len(library)} experts, "
          f"{library.total_params / 1e12:.2f}T parameters")
    baseline = None
    for platform in (sn40l_platform(), dgx_h100_platform(), dgx_a100_platform()):
        try:
            server = ExpertServer(platform, library)
        except CapacityError as exc:
            print(f"  {platform.name:<12s}: OOM ({exc})")
            continue
        experts = library.experts[: args.batch]
        result = server.serve_experts(experts, output_tokens=args.tokens)
        note = ""
        if baseline is None:
            baseline = result.total_s
        else:
            note = f"  ({result.total_s / baseline:.1f}x slower than SN40L)"
        print(f"  {platform.name:<12s}: {fmt_time(result.total_s)} "
              f"({100 * result.switch_fraction:.0f}% switching){note}")
    return 0


def _platform_factories():
    from repro.systems.platforms import (
        dgx_a100_platform,
        dgx_h100_platform,
        sn40l_platform,
    )

    return {
        "sn40l": sn40l_platform,
        "dgx-a100": dgx_a100_platform,
        "dgx-h100": dgx_h100_platform,
    }


def _parse_node_counts(value) -> List[int]:
    """``--num-nodes`` accepts one count or a comma list (cluster-bench)."""
    counts = sorted({int(n) for n in str(value).split(",")})
    if any(n < 1 for n in counts):
        raise ValueError(f"node counts must be >= 1, got {value!r}")
    return counts


def _build_stream(args):
    from repro.coe.engine import zipf_request_stream
    from repro.coe.expert import build_samba_coe_library

    library = build_samba_coe_library(args.experts)
    requests = zipf_request_stream(
        library, args.requests, alpha=args.zipf, seed=args.seed,
        prompt_tokens=args.prompt, output_tokens=args.tokens,
    )
    return library, requests


def _tier_caps_from_args(args, library):
    """``--hbm-frac``/``--ddr-frac`` -> ``tier_capacities`` (or None).

    The HBM budget is FRAC x the library working set, floored at the
    largest single expert so at least one expert always fits in HBM.
    ``--ddr-frac`` additionally bounds the DDR tier (spilling the rest
    to NVMe); it is clamped up to the HBM budget so the inclusive
    hierarchy invariant (DDR >= HBM) always holds, and it needs
    ``--hbm-frac`` — an unbounded HBM tier never spills to DDR, so a
    DDR cap alone would be dead configuration.
    """
    frac = getattr(args, "hbm_frac", None)
    ddr_frac = getattr(args, "ddr_frac", None)
    if frac is None:
        if ddr_frac is not None:
            raise ValueError("--ddr-frac needs --hbm-frac: an unbounded "
                             "HBM budget never spills to DDR")
        return None
    if frac <= 0:
        raise ValueError(f"--hbm-frac must be positive, got {frac}")
    working_set = sum(e.weight_bytes for e in library.experts)
    biggest = max(e.weight_bytes for e in library.experts)
    caps = {"hbm": max(int(frac * working_set), biggest)}
    if ddr_frac is not None:
        if ddr_frac <= 0:
            raise ValueError(
                f"--ddr-frac must be positive, got {ddr_frac}")
        caps["ddr"] = max(int(ddr_frac * working_set), caps["hbm"])
    return caps


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.coe.api import ServeConfig, serve

    platforms = _platform_factories()
    selected = list(platforms) if args.platform == "all" else [args.platform]
    policies = (list(NodePolicy.values()) if args.policy == "all"
                else [args.policy])
    if args.inject_fault or args.deadline is not None:
        print("serve-bench is single-node; faults and deadlines need "
              "cluster-bench or trace --cluster", file=sys.stderr)
        return 2
    try:
        library, requests = _build_stream(args)
        tier_capacities = _tier_caps_from_args(args, library)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"{args.requests} requests over {len(library)} experts "
          f"(Zipf alpha={args.zipf}), {args.tokens} output tokens each"
          + (f", hbm capped at {args.hbm_frac}x working set"
             if tier_capacities else ""))
    header = (f"{'platform':<12s} {'policy':<9s} {'req/s':>8s} {'tok/s':>9s} "
              f"{'p50':>9s} {'p99':>9s} {'batch':>6s} {'hidden':>7s}")
    print(header)
    print("-" * len(header))
    results = []
    for name in selected:
        platform = platforms[name]()
        for policy in policies:
            try:
                config = ServeConfig(policy=policy, max_batch=args.max_batch,
                                     window=args.window,
                                     cache_policy=args.cache_policy,
                                     scheduler=args.scheduler,
                                     tier_capacities=tier_capacities,
                                     pipeline_promotions=args.pipelined)
                if getattr(args, "profile", False) and not results:
                    from repro.bench.sweep import profile_point

                    report = profile_point(serve, platform, library,
                                           requests, config)
                else:
                    report = serve(platform, library, requests, config)
            except CapacityError as exc:
                # The library does not fit this platform under any policy.
                print(f"{platform.name:<12s} OOM ({exc})")
                break
            except ValueError as exc:
                print(exc, file=sys.stderr)
                return 2
            print(f"{platform.name:<12s} {policy:<9s} "
                  f"{report.requests_per_second:8.2f} "
                  f"{report.tokens_per_second:9.1f} "
                  f"{fmt_time(report.p50_s):>9s} {fmt_time(report.p99_s):>9s} "
                  f"{report.mean_batch:6.2f} "
                  f"{100 * report.switch_hidden_fraction:6.1f}%")
            results.append(report.to_dict())
    if args.output:
        import json

        payload = {
            "benchmark": "serve_bench",
            "experts": args.experts,
            "requests": args.requests,
            "zipf_alpha": args.zipf,
            "seed": args.seed,
            "cache_policy": args.cache_policy,
            "scheduler": args.scheduler,
            "hbm_frac": args.hbm_frac,
            "ddr_frac": args.ddr_frac,
            "pipelined": args.pipelined,
            "results": results,
        }
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.output}")
    return 0


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    from repro.coe.api import ServeConfig, serve

    platforms = _platform_factories()
    if args.platform == "all":
        print("cluster-bench runs one platform; pick --platform",
              file=sys.stderr)
        return 2
    if args.policy == "all":
        print("cluster-bench sweeps --cluster-policy; pick one node "
              f"--policy ({'|'.join(NodePolicy.values())})", file=sys.stderr)
        return 2
    try:
        node_counts = _parse_node_counts(args.num_nodes)
        library, requests = _build_stream(args)
        tier_capacities = _tier_caps_from_args(args, library)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    policies = (list(ClusterPolicy.values()) if args.cluster_policy == "all"
                else [args.cluster_policy])
    replication = not args.no_replication
    print(f"{args.requests} requests over {len(library)} experts "
          f"(Zipf alpha={args.zipf}), node policy {args.policy}, "
          f"online replication {'on' if replication else 'off'}"
          + (f", faults {args.inject_fault}" if args.inject_fault else ""))
    header = (f"{'nodes':>5s} {'policy':<13s} {'tok/s':>9s} {'scaling':>8s} "
              f"{'imbal':>6s} {'steals':>6s} {'repl':>5s} {'makespan':>9s}")
    print(header)
    print("-" * len(header))
    results = []
    baselines = {}
    for policy in policies:
        for n in node_counts:
            try:
                config = ServeConfig(
                    policy=args.policy, cluster_policy=policy, num_nodes=n,
                    max_batch=args.max_batch, window=args.window,
                    online_replication=replication,
                    faults=args.inject_fault, deadline_s=args.deadline,
                    cache_policy=args.cache_policy,
                    scheduler=args.scheduler,
                    tier_capacities=tier_capacities,
                    pipeline_promotions=args.pipelined,
                )
                if getattr(args, "profile", False) and not results:
                    from repro.bench.sweep import profile_point

                    report = profile_point(serve, platforms[args.platform],
                                           library, requests, config)
                else:
                    report = serve(platforms[args.platform], library, requests,
                                   config)
            except ValueError as exc:
                print(exc, file=sys.stderr)
                return 2
            base = baselines.setdefault(policy, report.tokens_per_second)
            scaling = report.tokens_per_second / base if base > 0 else 0.0
            print(f"{report.num_nodes:5d} {policy:<13s} "
                  f"{report.tokens_per_second:9.1f} {scaling:7.2f}x "
                  f"{report.load_imbalance:6.2f} {report.steals:6d} "
                  f"{report.replications:5d} {fmt_time(report.makespan_s):>9s}")
            if report.crashes or report.rejected:
                print(f"      faults: {report.crashes} crash(es), "
                      f"{report.redispatched_groups} groups re-dispatched, "
                      f"{report.rejected} rejected, availability "
                      f"{report.availability:.3f}, recovery "
                      f"{fmt_time(report.recovery_s)}, goodput "
                      f"{report.goodput_tokens_per_second:.1f} tok/s")
            entry = report.to_dict()
            entry.pop("nodes", None)
            # A one-node point reports no cluster policy; name its sweep's.
            entry["sweep_cluster_policy"] = policy
            entry["scaling_vs_one_node"] = scaling
            results.append(entry)
    if args.output:
        import json

        payload = {
            "benchmark": "cluster_serving",
            "experts": len(library),
            "requests": args.requests,
            "zipf_alpha": args.zipf,
            "seed": args.seed,
            "node_policy": args.policy,
            "cache_policy": args.cache_policy,
            "scheduler": args.scheduler,
            "hbm_frac": args.hbm_frac,
            "ddr_frac": args.ddr_frac,
            "pipelined": args.pipelined,
            "online_replication": replication,
            "faults": list(args.inject_fault),
            "deadline_s": args.deadline,
            "results": results,
        }
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.output}")
    return 0


def _cmd_serve_live(args: argparse.Namespace) -> int:
    from repro.coe.api import ServeConfig, ServeModeError, serve
    from repro.coe.crosscheck import cross_check
    from repro.coe.expert import build_samba_coe_library
    from repro.load import ArrivalSpec, ArrivalTrace, generate_trace

    platforms = _platform_factories()
    if args.platform == "all":
        print("serve-live runs one platform; pick --platform",
              file=sys.stderr)
        return 2
    if args.inject_fault:
        print("fault injection is sim-only; use cluster-bench",
              file=sys.stderr)
        return 2
    library = build_samba_coe_library(args.experts)
    try:
        if args.replay_trace:
            trace = ArrivalTrace.load(args.replay_trace)
            print(f"replaying {len(trace)} arrivals from "
                  f"{args.replay_trace}")
        else:
            spec = ArrivalSpec(
                process=args.process, rate_rps=args.rate,
                duration_s=args.duration, seed=args.seed,
                zipf_alpha=args.zipf, prompt_tokens=args.prompt,
                output_tokens=args.tokens,
            )
            trace = generate_trace(spec, library)
            print(f"{len(trace)} {args.process} arrivals over "
                  f"{args.duration:g}s at {args.rate:g} req/s")
    except (ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.record_trace:
        trace.save(args.record_trace)
        print(f"recorded trace to {args.record_trace}")
    requests = trace.to_requests(library)
    num_nodes = int(str(args.num_nodes).split(",")[0])
    try:
        config = ServeConfig(
            policy=args.policy, cluster_policy=args.cluster_policy,
            cache_policy=args.cache_policy, num_nodes=num_nodes,
            max_batch=args.max_batch, window=args.window,
            deadline_s=args.deadline, mode="live",
            max_queue=args.max_queue, time_scale=args.time_scale,
            scheduler=args.scheduler,
            tier_capacities=_tier_caps_from_args(args, library),
            pipeline_promotions=args.pipelined,
        )
    except (ServeModeError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    payload: dict
    if args.cross_check:
        result = cross_check(platforms[args.platform], library, requests,
                             config)
        report = result.live_report
        verdict = "MATCH" if result.match else "MISMATCH"
        print(f"sim/live decision cross-check: {verdict} "
              f"({result.decisions} decisions on "
              f"{len(result.streams)} streams)")
        if not result.match:
            print(f"  first divergence: {result.mismatch}", file=sys.stderr)
        payload = {"benchmark": "live_serving",
                   "cross_check": result.to_dict()}
    else:
        report = serve(platforms[args.platform], library, requests, config)
        payload = {"benchmark": "live_serving"}
    print(f"{report.completed_requests}/{report.requests} requests in "
          f"{fmt_time(report.wall_s)} wall ({report.makespan_s:.2f} model-s "
          f"at time_scale {report.time_scale:g})")
    print(f"  goodput {report.goodput_tokens_per_second:.1f} tok/s, "
          f"p50 {fmt_time(report.p50_s)}, p99 {fmt_time(report.p99_s)}, "
          f"shed {report.shed_deadline} deadline + "
          f"{report.shed_backpressure} backpressure, "
          f"drained {report.drained}")
    payload["config"] = config.to_dict()
    payload["report"] = report.to_dict()
    if args.output:
        import json

        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.output}")
    if args.cross_check and not result.match:
        return 1
    return 0


def _cmd_footprint(args: argparse.Namespace) -> int:
    from repro.models.catalog import LLAMA2_7B
    from repro.systems.footprint import dgx_nodes_required, sn40l_nodes_required
    from repro.systems.platforms import dgx_a100_platform, sn40l_platform
    from repro.units import GiB

    expert = LLAMA2_7B.weight_bytes
    reserved = expert + 8 * GiB
    sn = sn40l_nodes_required(sn40l_platform(), args.experts, expert, reserved)
    dgx = dgx_nodes_required(dgx_a100_platform(), args.experts, expert, reserved)
    print(f"{args.experts} Llama2-7B experts at sustained TP8 latency:")
    print(f"  SN40L nodes : {sn}")
    print(f"  DGX nodes   : {dgx}  ({dgx / sn:.0f}x footprint)")
    return 0


def _cmd_intensity(args: argparse.Namespace) -> int:
    from repro.dataflow import fusion
    from repro.dataflow.intensity import (
        GPU_FUSED,
        GPU_UNFUSED,
        SN40L_STREAMING,
        operational_intensity,
    )
    from repro.models.fftconv import monarch_fft_graph

    graph = monarch_fft_graph(m=args.m)
    rows = [
        ("no fusion", operational_intensity(fusion.unfused(graph), GPU_UNFUSED)),
        ("gemm0-mul-transpose", operational_intensity(
            fusion.manual_plan(graph, [["gemm0", "mul", "transpose"], ["gemm1"]]),
            GPU_FUSED)),
        ("fully fused", operational_intensity(
            fusion.streaming_fusion(graph), SN40L_STREAMING)),
    ]
    print(f"Monarch FFT stage (m={args.m}) operational intensity:")
    for name, value in rows:
        print(f"  {name:<20s}: {value:7.1f} FLOPs/byte")
    return 0


def _build_workload(args: argparse.Namespace):
    from repro.models.catalog import get_model
    from repro.models.transformer import decode_graph, prefill_graph, train_graph

    builders = {"prefill": prefill_graph, "decode": decode_graph,
                "train": train_graph}
    cfg = get_model(args.model)
    seq = min(args.seq, cfg.max_seq)
    return builders[args.phase](cfg, args.batch, seq, tp=args.sockets)


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.dataflow import fusion
    from repro.dataflow.visualize import plan_summary

    try:
        graph = _build_workload(args)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    plan = fusion.group_by_prefix(graph)
    print(plan_summary(plan, max_kernels=args.max_kernels))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.cluster:
        return _trace_cluster(args)
    if args.serve:
        return _trace_serve(args)
    if not args.model or not args.phase:
        print("trace: model and phase are required unless --serve or "
              "--cluster is given", file=sys.stderr)
        return 2
    return _trace_plan(args)


def _trace_plan(args: argparse.Namespace) -> int:
    from repro.arch.config import SocketConfig
    from repro.dataflow import fusion
    from repro.obs import write_summary
    from repro.perf.kernel_cost import ExecutionTarget, Orchestration, cost_plan
    from repro.perf.trace import plan_cost_trace, total_duration_s, write_trace

    try:
        graph = _build_workload(args)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    target = ExecutionTarget.from_socket(SocketConfig(), sockets=args.sockets)
    orchestration = (Orchestration.HARDWARE if args.hardware
                     else Orchestration.SOFTWARE)
    cost = cost_plan(fusion.group_by_prefix(graph), target, orchestration)
    events = plan_cost_trace(cost)
    write_trace(events, args.output)
    print(f"wrote {len(events)} events ({fmt_time(total_duration_s(events))}) "
          f"to {args.output}")
    if args.summary:
        write_summary(cost.to_timeline(), args.summary)
        print(f"wrote timeline summary to {args.summary}")
    return 0


def _trace_serve(args: argparse.Namespace) -> int:
    """Trace a seeded serve-bench run: the engine's real sim timeline."""
    from repro.coe.api import ServeConfig, serve
    from repro.obs import write_chrome_trace, write_summary
    from repro.perf.trace import ENGINE_LANES

    if args.platform == "all" or args.policy == "all":
        print("trace runs one configuration; pick a single --platform "
              "and --policy", file=sys.stderr)
        return 2
    if args.inject_fault or args.deadline is not None:
        print("faults and deadlines need the cluster engine; use trace "
              "--cluster", file=sys.stderr)
        return 2
    try:
        library, requests = _build_stream(args)
        config = ServeConfig(policy=args.policy, max_batch=args.max_batch,
                             window=args.window,
                             cache_policy=args.cache_policy)
        report = serve(_platform_factories()[args.platform], library,
                       requests, config)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    spans = write_chrome_trace(report.timeline, args.output, lanes=ENGINE_LANES)
    print(f"wrote {spans} spans ({fmt_time(report.makespan_s)} makespan) "
          f"to {args.output}")
    print(f"  {args.policy} on {report.platform}: "
          f"{report.requests_per_second:.2f} req/s, "
          f"{100 * report.switch_hidden_fraction:.1f}% of switch time "
          f"hidden behind execution")
    if args.summary:
        write_summary(report.timeline, args.summary)
        print(f"wrote timeline summary to {args.summary}")
    return 0


def _trace_cluster(args: argparse.Namespace) -> int:
    """Trace a multi-node cluster run: per-node lanes, one shared clock."""
    from repro.coe.api import ServeConfig, serve
    from repro.coe.cluster_engine import NODE_LANES, cluster_lanes
    from repro.obs import write_chrome_trace, write_summary

    if args.platform == "all" or args.policy == "all":
        print("trace runs one configuration; pick a single --platform "
              "and --policy", file=sys.stderr)
        return 2
    try:
        (num_nodes,) = _parse_node_counts(args.num_nodes)
    except ValueError:
        print(f"trace --cluster needs one node count, got "
              f"{args.num_nodes!r}", file=sys.stderr)
        return 2
    try:
        library, requests = _build_stream(args)
        config = ServeConfig(
            policy=args.policy, cluster_policy=args.cluster_policy,
            num_nodes=num_nodes, max_batch=args.max_batch,
            window=args.window, faults=args.inject_fault,
            deadline_s=args.deadline, cache_policy=args.cache_policy,
        )
        report = serve(_platform_factories()[args.platform], library,
                       requests, config)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    # Pin the lanes that hold spans: a single engine's have no prefix.
    used = set(report.timeline.lanes)
    lanes = [lane for lane in cluster_lanes(report.num_nodes)
             + list(NODE_LANES) if lane in used]
    spans = write_chrome_trace(report.timeline, args.output, lanes=lanes)
    print(f"wrote {spans} spans ({fmt_time(report.makespan_s)} makespan) "
          f"to {args.output}")
    print(f"  {report.num_nodes} nodes, {args.cluster_policy} dispatch: "
          f"{report.tokens_per_second:.1f} tok/s, "
          f"load imbalance {report.load_imbalance:.2f}, "
          f"{report.steals} steals, {report.replications} replications")
    if report.crashes or report.rejected:
        print(f"  faults: {report.crashes} crash(es), "
              f"{report.redispatched_groups} groups re-dispatched, "
              f"{report.rejected} rejected, availability "
              f"{report.availability:.3f}, recovery "
              f"{fmt_time(report.recovery_s)}, goodput "
              f"{report.goodput_tokens_per_second:.1f} tok/s")
    if args.summary:
        write_summary(report.timeline, args.summary)
        print(f"wrote timeline summary to {args.summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SN40L / Samba-CoE reproduction toolkit (MICRO 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="SN40L hardware summary").set_defaults(fn=_cmd_info)
    sub.add_parser("models", help="workload catalogue").set_defaults(fn=_cmd_models)

    fusion_p = sub.add_parser("fusion", help="fusion speedup for one workload")
    fusion_p.add_argument("model", help="catalogue name, e.g. llama2-7b")
    fusion_p.add_argument("phase", choices=["prefill", "decode", "train"])
    fusion_p.add_argument("--batch", type=int, default=1)
    fusion_p.add_argument("--seq", type=int, default=4096)
    fusion_p.add_argument("--sockets", type=int, default=8)
    fusion_p.set_defaults(fn=_cmd_fusion)

    coe_p = sub.add_parser("coe", help="CoE serving comparison")
    coe_p.add_argument("--experts", type=int, default=150)
    coe_p.add_argument("--batch", type=int, default=8)
    coe_p.add_argument("--tokens", type=int, default=20)
    coe_p.set_defaults(fn=_cmd_coe)

    def knob(name):
        """A ServeConfig field's declared default, as a flag value."""
        domain = FIELDS[name]
        return domain.encode(domain.default)

    # One parent-parser definition for every serving-path subcommand so
    # serve-bench, cluster-bench and trace accept identical flag
    # spellings. Built fresh per subcommand (a factory, not one shared
    # instance): argparse's set_defaults mutates the *shared action
    # objects* of a reused parent, which would leak one subcommand's
    # defaults into the others.
    def serving_parent() -> argparse.ArgumentParser:
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(
            "--platform", default="sn40l",
            choices=["sn40l", "dgx-a100", "dgx-h100", "all"])
        p.add_argument(
            "--policy", default=knob("policy"),
            choices=FIELDS["policy"].choices + ("all",),
            help="node scheduling policy")
        p.add_argument(
            "--cluster-policy", default=knob("cluster_policy"),
            choices=FIELDS["cluster_policy"].choices + ("all",),
            help="cross-node dispatch policy (cluster paths)")
        p.add_argument(
            "--cache-policy", default=knob("cache_policy"),
            choices=FIELDS["cache_policy"].choices,
            help="HBM expert-cache eviction policy (belady is offline-"
                 "only; see benchmarks/test_cache_policies.py; lookahead "
                 "ranks victims by next-use distance in the scheduler's "
                 "reordered backlog)")
        p.add_argument(
            "--scheduler", default=knob("scheduler"),
            choices=FIELDS["scheduler"].choices,
            help="admission-time request reordering applied before node "
                 "dispatch (expert_reorder groups by expert to cut "
                 "switch traffic under constrained memory)")
        p.add_argument(
            "--hbm-frac", type=float, default=None, metavar="FRAC",
            help="cap the HBM expert budget at FRAC x the library working "
                 "set (constrained-memory ladder; spills to DDR/NVMe "
                 "via the memory hierarchy)")
        p.add_argument(
            "--ddr-frac", type=float, default=None, metavar="FRAC",
            help="additionally cap the DDR expert budget at FRAC x the "
                 "working set (needs --hbm-frac; clamped up to the HBM "
                 "budget; the remainder lives on NVMe)")
        p.add_argument(
            "--pipelined", action="store_true",
            help="start the next queued group's NVMe->DDR promotion "
                 "while the current group decodes (CoServe-style "
                 "pipelining; needs a bounded DDR tier via --ddr-frac, "
                 "incompatible with --policy overlap)")
        p.add_argument(
            "--num-nodes", "--nodes", dest="num_nodes", default="4",
            metavar="N[,N...]",
            help="node count; cluster-bench accepts a comma-separated sweep")
        p.add_argument("--experts", type=int, default=64)
        p.add_argument("--requests", type=int, default=256)
        p.add_argument("--tokens", type=int, default=20)
        p.add_argument("--prompt", type=int, default=256)
        p.add_argument("--max-batch", type=int, default=knob("max_batch"))
        p.add_argument("--window", type=int, default=knob("window"))
        p.add_argument("--zipf", type=float, default=1.1)
        p.add_argument("--seed", type=int, default=1234)
        p.add_argument(
            "--inject-fault", action="append", default=[], metavar="SPEC",
            help="deterministic fault on the sim clock (repeatable): NODE:T "
                 "crashes the node at T; also crash:NODE:T, "
                 "slow:NODE:T:DURATION[:MULT], copyfail:NODE:T[:COUNT]")
        p.add_argument(
            "--deadline", type=float, default=knob("deadline_s"),
            metavar="SECONDS",
            help="SLO deadline; work that cannot meet it is shed "
                 "lowest-priority first and reported as rejected")
        p.add_argument("-o", "--output", metavar="FILE",
                       help="write results as JSON")
        return p

    serve_p = sub.add_parser("serve-bench", parents=[serving_parent()],
                             help="throughput serving engine benchmark")
    serve_p.add_argument("--profile", action="store_true",
                         help="cProfile the first benchmark point and print "
                              "the top-25 cumulative-time table")
    serve_p.set_defaults(fn=_cmd_serve_bench, platform="all", policy="all",
                         experts=100)

    cluster_p = sub.add_parser(
        "cluster-bench", parents=[serving_parent()],
        help="multi-node scaling curve: tokens/s and load imbalance vs nodes",
    )
    cluster_p.add_argument("--node-policy", dest="policy",
                           choices=FIELDS["policy"].choices,
                           help=argparse.SUPPRESS)  # legacy alias of --policy
    cluster_p.add_argument("--no-replication", action="store_true",
                           help="disable online hot-expert replication")
    cluster_p.add_argument("--profile", action="store_true",
                           help="cProfile the first benchmark point and print "
                                "the top-25 cumulative-time table")
    cluster_p.set_defaults(fn=_cmd_cluster_bench, cluster_policy="all",
                           num_nodes="1,2,4,8")

    live_p = sub.add_parser(
        "serve-live", parents=[serving_parent()],
        help="wall-clock serving over an open-loop arrival trace, with an "
             "optional sim/live decision cross-check",
    )
    live_p.add_argument(
        "--process", default="poisson",
        choices=["poisson", "diurnal", "bursty", "tenants"],
        help="arrival process of the generated open-loop workload")
    live_p.add_argument("--rate", type=float, default=100.0,
                        help="mean arrival rate (requests/second)")
    live_p.add_argument("--duration", type=float, default=10.0,
                        help="trace duration in model seconds")
    live_p.add_argument(
        "--time-scale", type=float, default=knob("time_scale"), metavar="S",
        help=f"wall seconds per model second (default "
             f"{FIELDS['time_scale'].unset:g} = real time; small values "
             f"fast-forward the trace)")
    live_p.add_argument(
        "--max-queue", type=int, default=knob("max_queue"), metavar="N",
        help=f"per-node admission queue bound (backpressure; default "
             f"{FIELDS['max_queue'].unset})")
    live_p.add_argument("--record-trace", metavar="FILE",
                        help="save the generated arrival trace as JSON")
    live_p.add_argument("--replay-trace", metavar="FILE",
                        help="replay a previously recorded arrival trace")
    live_p.add_argument(
        "--cross-check", action="store_true",
        help="also run the sim backend on the same trace and diff every "
             "policy decision (exit 1 on mismatch)")
    # Live mode rejects overlap/steal (sim-only), so the shared parent's
    # defaults are overridden with the live-valid equivalents.
    live_p.set_defaults(fn=_cmd_serve_live, policy="affinity",
                        cluster_policy="least_loaded", num_nodes="1")

    foot_p = sub.add_parser("footprint", help="nodes required for a CoE")
    foot_p.add_argument("--experts", type=int, default=850)
    foot_p.set_defaults(fn=_cmd_footprint)

    int_p = sub.add_parser("intensity", help="Table I intensity analysis")
    int_p.add_argument("--m", type=int, default=1024)
    int_p.set_defaults(fn=_cmd_intensity)

    def add_workload_args(p):
        p.add_argument("model", help="catalogue name, e.g. llama2-7b")
        p.add_argument("phase", choices=["prefill", "decode", "train"])
        p.add_argument("--batch", type=int, default=1)
        p.add_argument("--seq", type=int, default=2048)
        p.add_argument("--sockets", type=int, default=8)

    plan_p = sub.add_parser("plan", help="print the fused kernel plan")
    add_workload_args(plan_p)
    plan_p.add_argument("--max-kernels", type=int, default=8)
    plan_p.set_defaults(fn=_cmd_plan)

    trace_p = sub.add_parser(
        "trace", parents=[serving_parent()],
        help="write a Perfetto/Chrome trace of a kernel schedule or a "
             "serve-bench run",
    )
    trace_p.add_argument("model", nargs="?",
                         help="catalogue name, e.g. llama2-7b (plan mode)")
    trace_p.add_argument("phase", nargs="?",
                         choices=["prefill", "decode", "train"])
    trace_p.add_argument("--batch", type=int, default=1)
    trace_p.add_argument("--seq", type=int, default=2048)
    trace_p.add_argument("--sockets", type=int, default=8)
    trace_p.add_argument("--summary", metavar="FILE",
                         help="also write a JSON timeline summary")
    trace_p.add_argument("--hardware", action="store_true",
                         help="hardware-orchestrated launches (plan mode)")
    trace_p.add_argument("--serve", action="store_true",
                         help="trace a throughput serve-bench run instead "
                              "of a compiled plan")
    trace_p.add_argument("--cluster", action="store_true",
                         help="trace a multi-node cluster run with per-node "
                              "lanes instead of a compiled plan")
    trace_p.set_defaults(fn=_cmd_trace, output="schedule_trace.json",
                         experts=40, requests=64)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapacityError as exc:
        # A library a platform cannot hold, raised when its engine is
        # built: one line and exit 2, as for any other bad argument.
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
