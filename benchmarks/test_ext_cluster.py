"""Extension: scaling a CoE beyond one node.

The paper notes that multi-machine serving "introduces load balancing
challenges" (Section III-B). This extension quantifies them on the
cluster engine (:class:`repro.coe.cluster_engine.ClusterEngine`), one
request per group on FIFO nodes: sharded least-loaded dispatch under
skewed expert popularity vs work stealing with online replication of the
hot experts.
"""

import random

import pytest

from benchmarks.conftest import print_table
from repro.coe.cluster_engine import ClusterEngine
from repro.coe.engine import EngineRequest
from repro.coe.expert import build_samba_coe_library
from repro.systems.platforms import sn40l_platform

NUM_NODES = 4
REQUESTS = 80


def _zipf_stream(library, rng):
    weights = [1.0 / (rank + 1) for rank in range(len(library))]
    return [
        EngineRequest(
            rid, rng.choices(library.experts, weights=weights, k=1)[0],
            output_tokens=10,
        )
        for rid in range(REQUESTS)
    ]


def run_cluster():
    library = build_samba_coe_library(40)
    stream = _zipf_stream(library, random.Random(11))
    reports = {
        name: ClusterEngine(
            sn40l_platform, library, NUM_NODES, node_policy="fifo",
            max_batch=1, **kwargs,
        ).serve(stream)
        for name, kwargs in (
            ("sharded", {"policy": "least_loaded",
                         "online_replication": False}),
            ("replicated", {"policy": "steal"}),
        )
    }
    return {
        name: (report.makespan_s, report.load_imbalance)
        for name, report in reports.items()
    }


@pytest.fixture(scope="module")
def results():
    return run_cluster()


def test_cluster_report(benchmark, results):
    benchmark.pedantic(lambda: results, rounds=1, iterations=1)
    print_table(
        f"Extension: {REQUESTS} Zipf requests over {NUM_NODES} SN40L nodes",
        ["Placement", "Makespan", "Load imbalance"],
        [(name, f"{makespan:.2f} s", f"{imbalance:.2f}x")
         for name, (makespan, imbalance) in results.items()],
    )


def test_skew_imbalances_sharded_dispatch(results):
    _, imbalance = results["sharded"]
    assert imbalance > 1.2


def test_replication_improves_makespan_and_balance(results):
    sharded_makespan, sharded_imbalance = results["sharded"]
    repl_makespan, repl_imbalance = results["replicated"]
    assert repl_makespan < sharded_makespan
    assert repl_imbalance < sharded_imbalance
