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
        assert "OOM" in capsys.readouterr().out

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
