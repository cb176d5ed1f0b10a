"""The command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "639 TFLOPS" in out
        assert "520.0 MiB" in out

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "llama2-7b" in out
        assert "bloom-176b" in out

    def test_fusion_decode(self, capsys):
        assert main(["fusion", "llama2-7b", "decode", "--seq", "512"]) == 0
        out = capsys.readouterr().out
        assert "fused+HO" in out
        assert "x)" in out

    def test_fusion_unknown_model(self, capsys):
        assert main(["fusion", "gpt-99", "decode"]) == 2

    def test_coe(self, capsys):
        assert main(["coe", "--experts", "60", "--batch", "2",
                     "--tokens", "5"]) == 0
        out = capsys.readouterr().out
        assert "SN40L-Node" in out
        assert "slower than SN40L" in out

    def test_coe_reports_oom(self, capsys):
        assert main(["coe", "--experts", "200", "--batch", "1",
                     "--tokens", "5"]) == 0
        out = capsys.readouterr().out
        # One row per platform that cannot hold the library, each from
        # the runtime's CapacityError.
        oom = [line for line in out.splitlines() if "OOM" in line]
        assert len(oom) == 2
        assert all("147 of 200 experts fit" in line for line in oom)
        assert "SN40L-Node" in out and "ms (" in out

    def test_footprint(self, capsys):
        assert main(["footprint", "--experts", "850"]) == 0
        out = capsys.readouterr().out
        assert "SN40L nodes : 1" in out

    def test_intensity(self, capsys):
        assert main(["intensity"]) == 0
        out = capsys.readouterr().out
        assert "410.4" in out

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCapacityErrors:
    """A library a platform cannot hold: an OOM row where the command
    compares platforms, else one line on stderr and exit 2."""

    STREAM = ["--platform", "dgx-h100", "--experts", "150", "--policy",
              "fifo", "--requests", "20"]

    def test_serve_bench_prints_one_oom_row(self, capsys):
        assert main(["serve-bench", "--platform", "all", "--experts", "150",
                     "--requests", "20", "--policy", "all"]) == 0
        out = capsys.readouterr().out
        oom = [line for line in out.splitlines() if "OOM" in line]
        assert [line.split()[0] for line in oom] == ["DGX-A100", "DGX-H100"]
        assert all("147 of 150 experts fit" in line for line in oom)

    @pytest.mark.parametrize("argv", [
        ["cluster-bench", "--num-nodes", "1"],
        ["serve-live", "--duration", "1", "--rate", "5",
         "--time-scale", "0.001"],
    ], ids=["cluster-bench", "serve-live"])
    def test_cluster_bench_and_serve_live_exit_2(self, argv, capsys):
        assert main(argv + self.STREAM) == 2
        err = capsys.readouterr().err.strip()
        assert err == "147 of 150 experts fit in DDR (1.8 TiB) + NVMe (0.0 B)"


class TestPlanAndTrace:
    def test_plan_prints_kernels(self, capsys):
        assert main(["plan", "llama2-7b", "decode", "--seq", "256"]) == 0
        out = capsys.readouterr().out
        assert "stages :" in out
        assert "more kernels" in out

    def test_trace_writes_chrome_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "t.json"
        assert main(["trace", "llama2-7b", "decode", "--seq", "256",
                     "-o", str(path), "--hardware"]) == 0
        data = json.loads(path.read_text())
        assert data["traceEvents"]

    def test_plan_unknown_model(self):
        assert main(["plan", "nope", "decode"]) == 2


class TestOneNodeCluster:
    """A one-node point in a cluster sweep reports like any other."""

    def test_cluster_bench_includes_one_node(self, tmp_path, capsys):
        import json

        path = tmp_path / "cluster.json"
        assert main(["cluster-bench", "--num-nodes", "1,2",
                     "--cluster-policy", "steal", "--experts", "16",
                     "--requests", "64", "-o", str(path)]) == 0
        rows = json.loads(path.read_text())["results"]
        assert [row["num_nodes"] for row in rows] == [1, 2]
        assert rows[0]["scaling_vs_one_node"] == 1.0
        assert all(row["requests"] == 64 for row in rows)

    def test_cluster_trace_of_one_node(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        summary = tmp_path / "summary.json"
        assert main(["trace", "--cluster", "--num-nodes", "1",
                     "--experts", "16", "--requests", "64",
                     "-o", str(trace), "--summary", str(summary)]) == 0
        assert "1 nodes" in capsys.readouterr().out
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert json.loads(summary.read_text())["num_spans"] > 0

    def test_one_node_trace_names_only_the_tracks_it_used(self, tmp_path,
                                                          capsys):
        """A one-node run without faults is a single engine: its spans
        sit on unprefixed lanes, and the trace names no empty track."""
        import json

        trace = tmp_path / "trace.json"
        assert main(["trace", "--cluster", "--num-nodes", "1",
                     "--experts", "16", "--requests", "64",
                     "-o", str(trace)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        named = {e["tid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert set(named) == {e["tid"] for e in events if e["ph"] == "X"}
        assert [named[tid] for tid in sorted(named)] == ["compute", "switch"]

    def test_cluster_bench_rows_name_their_sweep_policy(self, tmp_path,
                                                        capsys):
        """Each row carries its sweep's cluster policy under its own key;
        the report's own field stays null on a one-node point."""
        import json

        path = tmp_path / "cluster.json"
        assert main(["cluster-bench", "--num-nodes", "1,2", "--experts",
                     "16", "--requests", "64", "-o", str(path)]) == 0
        rows = json.loads(path.read_text())["results"]
        policies = ["least_loaded", "affinity", "steal"]
        assert [(r["num_nodes"], r["sweep_cluster_policy"]) for r in rows] \
            == [(n, p) for p in policies for n in (1, 2)]
        assert [r["cluster_policy"] for r in rows] == [
            None if n == 1 else p for p in policies for n in (1, 2)]


class TestSingleNodeFlags:
    """A single-node command refuses the cluster-only flags instead of
    serving as if they were not given: one stderr line, exit 2."""

    STREAM = ["--platform", "sn40l", "--policy", "fifo", "--experts", "8",
              "--requests", "8"]

    @pytest.mark.parametrize("argv, flag", [
        (["serve-bench", "--deadline", "-1"], "deadlines"),
        (["serve-bench", "--deadline", "5"], "deadlines"),
        (["serve-bench", "--inject-fault", "node1:0.5"], "faults"),
        (["trace", "--serve", "--deadline", "5"], "deadlines"),
    ], ids=["serve-bench-negative-deadline", "serve-bench-deadline",
            "serve-bench-fault", "trace-serve-deadline"])
    def test_cluster_flags_rejected(self, argv, flag, tmp_path, capsys):
        out = ["-o", str(tmp_path / "out.json")]
        assert main(argv + self.STREAM + out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert flag in line and "--cluster" in line


class TestFlagsFromTheFieldTable:
    def test_choices_and_defaults_are_declared_once(self):
        from repro.cli import build_parser
        from repro.coe.policies import FIELDS

        parser = build_parser()
        live = parser.parse_args(["serve-live"])
        assert (live.max_batch, live.window, live.cache_policy,
                live.scheduler, live.deadline, live.max_queue,
                live.time_scale) == (8, 16, "lru", "fifo", None, None, None)
        trace = parser.parse_args(["trace", "--serve"])
        assert (trace.policy, trace.cluster_policy) == ("overlap", "steal")
        for flag, name in (("--cache-policy", "cache_policy"),
                           ("--scheduler", "scheduler")):
            for value in FIELDS[name].choices:
                assert getattr(parser.parse_args(
                    ["serve-live", flag, value]), name) == value
        with pytest.raises(SystemExit):
            parser.parse_args(["serve-live", "--cache-policy", "belady"])
