"""End-to-end benchmark of the CoE serving stack: host and modeled metrics.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
                                  [--seconds S] [--trace [0|1]]

Runs the workloads of ``BENCHMARK.json`` (all of them by default) one
repetition at a time, each repetition in a fresh interpreter
(``rep.py``), interleaved round-robin across the selected workloads:
as many rounds as fit in ``--seconds``, and at least ``MIN_REPS``. It
prints every metric with its unit, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without ``--trace`` the metrics are the end-to-end ones; with it, one
extra traced repetition per workload gives the per-layer ones. With
more than one workload the metric names are prefixed with the
workload's.

Host times are rescaled to a fixed machine speed (``speed.py``) and
taken from the median repetition; peak RSS from the largest. Modeled
metrics must be identical in every repetition, traced or not. The exit
code is 0 only if every correctness check held.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Repetitions per workload however short ``--seconds`` is.
MIN_REPS = 3
#: A repetition still running after this many seconds is stopped.
REP_TIMEOUT_S = 150

#: Modeled metrics reported end to end; the other modeled values of a
#: repetition are per-layer metrics.
MODELED_E2E = (
    "model_goodput_tokens_per_s",
    "model_ttft_p50_s",
    "model_ttft_p99_s",
    "model_latency_p50_s",
    "model_latency_p99_s",
)


class RepFailed(RuntimeError):
    """A repetition's interpreter exited with an error."""


def run_rep(workload: str, seed: int, traced: bool) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    command = [sys.executable, str(HERE / "rep.py"), workload, str(seed)]
    if traced:
        command.append("--traced")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RepFailed(
            f"{workload} repetition ran past {REP_TIMEOUT_S} s"
        ) from None
    if proc.returncode != 0:
        raise RepFailed(
            f"{workload} repetition exited with {proc.returncode}:\n"
            f"{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def _nominal_serve_s(rep: dict) -> float:
    return rep["serve_s"] * speed.scale(rep["probe_s"])


def _median_serve_s(reps: List[dict]) -> float:
    return statistics.median(_nominal_serve_s(r) for r in reps)


def _median_setup(reps: List[dict]) -> Dict[str, float]:
    """Set-up steps of the repetition with the median set-up time."""
    scaled = [{step: seconds * speed.scale(r["probe_s"])
               for step, seconds in r["setup"].items()} for r in reps]
    totals = [sum(steps.values()) for steps in scaled]
    return scaled[totals.index(statistics.median_low(totals))]


def end_to_end(reps: List[dict]) -> Dict[str, float]:
    """End-to-end metrics of one workload's untraced repetitions."""
    metrics = {
        "host_requests_per_s": reps[0]["requests"] / _median_serve_s(reps),
        "setup_s": sum(_median_setup(reps).values()),
        "host_peak_rss_mb": max(r["rss_mb"] for r in reps),
    }
    metrics.update({name: reps[0]["modeled"][name] for name in MODELED_E2E})
    return metrics


def per_layer(reps: List[dict], traced: dict) -> Dict[str, object]:
    """Per-layer metrics: host ones from the traced repetition, set-up
    and modeled ones from the untraced repetitions."""
    serve_s = _median_serve_s(reps)
    trace = traced["trace"]
    scale = speed.scale(traced["probe_s"])
    events = reps[0]["modeled"]["sim.events_run"]
    metrics = {
        "cluster_engine.admission_s": trace["admission_s"] * scale,
        "cluster_engine.report_s": trace["report_s"] * scale,
        "host.us_per_event": serve_s / events * 1e6,
        "trace.overhead_frac": trace["root_s"] * scale / serve_s - 1,
    }
    for layer, stats in trace["layers"].items():
        metrics[f"{layer}.calls"] = None if stats is None else stats["calls"]
        metrics[f"{layer}.self_s"] = (
            None if stats is None else stats["self_s"] * scale
        )
    metrics.update({
        f"setup.{step}": seconds
        for step, seconds in _median_setup(reps).items()
    })
    metrics.update({
        name: value for name, value in reps[0]["modeled"].items()
        if name not in MODELED_E2E
    })
    return metrics


def problems(reps: List[dict]) -> List[str]:
    """Every correctness failure among one workload's repetitions."""
    found = [f"{r['workload']}: {f}" for r in reps for f in r["failures"]]
    if len({r["digest"] for r in reps}) > 1:
        found.append(f"{reps[0]['workload']}: model_digest differs "
                     "across repetitions")
    if any(r["modeled"] != reps[0]["modeled"] for r in reps):
        found.append(f"{reps[0]['workload']}: modeled metrics differ "
                     "across repetitions")
    return found


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    args = parser.parse_args(argv)
    selected = names if args.workload == "all" else [args.workload]
    # Exit through Python on SIGTERM so a running repetition is killed
    # and waited for, as it is on Ctrl-C.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    reps: Dict[str, List[dict]] = {name: [] for name in selected}
    began = time.monotonic()
    try:
        for rounds in itertools.count(1):
            for name in selected:
                reps[name].append(run_rep(name, args.seed, traced=False))
            elapsed = time.monotonic() - began
            # Stop before a round that would end past the budget.
            if (rounds >= MIN_REPS
                    and elapsed * (rounds + 1) / rounds > args.seconds):
                break
        traced = {
            name: run_rep(name, args.seed, traced=True) for name in selected
        } if args.trace else {}
    except RepFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics: Dict[str, dict] = {}
    found: List[str] = []
    attempted = failed = 0
    for name in selected:
        every = reps[name] + ([traced[name]] if args.trace else [])
        found += problems(every)
        attempted += sum(r["requests"] for r in every)
        failed += sum(r["requests"] - r["completed"] for r in every)
        values = (per_layer(reps[name], traced[name]) if args.trace
                  else end_to_end(reps[name]))
        raw = sorted(r["serve_s"] for r in reps[name])
        nominal = sorted(_nominal_serve_s(r) for r in reps[name])
        print(f"# {name}: seed {args.seed}, {len(raw)} reps"
              f"{' + 1 traced' if args.trace else ''}; serve_s min/median/"
              f"max raw {raw[0]:.3f}/{statistics.median(raw):.3f}/"
              f"{raw[-1]:.3f}, at nominal speed {nominal[0]:.3f}/"
              f"{statistics.median(nominal):.3f}/{nominal[-1]:.3f}; "
              f"{reps[name][0]['completed']} latency samples; "
              f"model_digest {reps[name][0]['digest'][:16]}")
        prefix = f"{name}." if len(selected) > 1 else ""
        for metric, unit in units.items():
            value = values[metric]
            metrics[prefix + metric] = {"value": value, "unit": unit}
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{name:<18} {metric:<40} {shown:>14} {unit}")
    for problem in found:
        print(f"INCORRECT {problem}", file=sys.stderr)
    print(json.dumps({"correct": not found, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not found else 1


if __name__ == "__main__":
    sys.exit(main())
