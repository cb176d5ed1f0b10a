"""Tests of the end-to-end benchmark's own machinery, at small sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import re
import signal
import time

import pytest

import rep
import run
import speed
import tracing
from workloads import WORKLOADS

SPEC = json.loads(run.SPEC_PATH.read_text())
SEED = 7
#: Requests per workload: enough for every layer to do some work; the
#: crash workload needs a modeled makespan past its 22.3 s crash.
SMALL = {
    "steal_default": 2_000,
    "crash_1of8": 12_000,
    "memwall_tiered": 4_000,
    "affinity_untraced": 4_000,
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def reps(request):
    """(name, two untraced repetitions, one traced repetition)."""
    name = request.param
    untraced = [rep.run_rep(name, SEED, num_requests=SMALL[name])
                for _ in range(2)]
    traced = rep.run_rep(name, SEED, traced=True, num_requests=SMALL[name])
    return name, untraced, traced


def test_spec_names_workloads_and_well_formed_metrics():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_emitted_metric_names_equal_spec(reps):
    _, untraced, traced = reps
    assert set(run.end_to_end(untraced)) == {
        m["name"] for m in SPEC["end_to_end"]
    }
    assert set(run.per_layer(untraced, traced)) == {
        m["name"] for m in SPEC["per_layer"]
    }


def test_outputs_pass_the_gate_and_tracing_changes_nothing(reps):
    _, untraced, traced = reps
    assert run.problems(untraced + [traced]) == []
    assert traced["digest"] == untraced[0]["digest"]
    assert traced["modeled"] == untraced[0]["modeled"]


def test_gate_flags_a_changed_digest(reps):
    _, untraced, traced = reps
    tampered = dict(traced, digest="0" * 64)
    assert any("model_digest" in p
               for p in run.problems(untraced + [tampered]))


def test_self_times_are_nonnegative_and_within_root(reps):
    _, _, traced = reps
    trace = traced["trace"]
    self_s = [stats["self_s"] for stats in trace["layers"].values()]
    assert all(s >= 0 for s in self_s)
    assert sum(self_s) <= trace["root_s"]
    assert sum(self_s) + trace["root_self_s"] == pytest.approx(
        trace["root_s"]
    )


def test_setup_steps_sum_to_setup_s(reps):
    _, untraced, traced = reps
    layers = run.per_layer(untraced, traced)
    steps = sum(v for k, v in layers.items() if k.startswith("setup."))
    assert steps == pytest.approx(
        run.end_to_end(untraced)["setup_s"], rel=0.05
    )


def test_crash_is_recovered_without_failures(reps):
    name, untraced, _ = reps
    if name != "crash_1of8":
        pytest.skip("only the crash workload injects a fault")
    modeled = untraced[0]["modeled"]
    assert modeled["cluster.redispatched_groups"] > 0
    assert modeled["failed_fraction"] == 0


def test_every_boundary_is_public_and_bound():
    bindings = tracing.boundary_bindings()
    for boundary in tracing.BOUNDARIES:
        assert bindings[boundary.layer], boundary.layer
        for path in boundary.paths:
            assert not path.rsplit(".", 1)[-1].startswith("_"), path


def test_traced_rep_restores_every_patched_attribute():
    before = tracing.boundary_bindings()
    rep.run_rep("steal_default", SEED, traced=True, num_requests=500)
    for bindings in before.values():
        for owner, attr, original in bindings:
            assert vars(owner)[attr] is original, (owner, attr)


def test_speed_probes_sample_and_restore_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with speed.sampling() as samples:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.scale(speed.harmonic_mean_s(samples)) > 0
    assert speed.scale(speed.harmonic_mean_s([])) == 1.0


def test_missing_boundary_reports_null(monkeypatch):
    gone = tracing.Boundary(
        "gone.layer", ("repro.coe.engine.ServingEngine.no_such_method",)
    )
    monkeypatch.setattr(tracing, "BOUNDARIES", tracing.BOUNDARIES + (gone,))
    with pytest.warns(UserWarning, match="no_such_method"):
        result = rep.run_rep("steal_default", SEED, traced=True,
                             num_requests=500)
    assert result["trace"]["layers"]["gone.layer"] is None
    assert result["trace"]["layers"]["sim.run"]["calls"] == 1
