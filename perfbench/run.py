"""The repository's benchmark: BI power and refresh workloads at SF 0.1,
timed end to end and, in a traced run, layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bi-power --seed 1 --seconds 36 --trace 0

Each step runs in a fresh process (``perfbench/rep.py``), so peak memory
does not carry over.  A reference process first builds the expected
results from a separately generated graph with plain serial calls; then
a run process sets up, makes timed run calls and checks the graph they
leave against it.  The metrics and their units are the ones
``BENCHMARK.json`` declares: with ``--trace 0`` the end-to-end metrics,
with ``--trace 1`` the per-layer ones.  The last line of standard output
is a JSON object with them.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: ``bi-streams`` is not in ``BENCHMARK.json`` (see NOTES.md) but runs
#: the same way.
WORKLOADS = ("bi-power", "bi-refresh", "bi-streams")
#: Least number of timed calls in a traced run process (the untraced
#: calls, then as many traced ones), and of live-serial passes.
TRACE_PASSES = {"bi-power": 4, "bi-refresh": 1, "bi-streams": 2}
#: Every process of one run must end within this many seconds.
DEADLINE_S = 170.0

#: Figures that only some workloads have.  They are printed in the
#: summary of every run and reported among the per-layer metrics, as 0
#: where they do not apply.
WORKLOAD_FIGURES = (
    "driver.power_geomean_ms", "driver.query_ms.p50", "driver.query_ms.p90",
    "driver.writes_per_s", "driver.read_block_ms.p50",
    "driver.read_block_ms.p80", "driver.ops_failed",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child(args: list[str], deadline: float, stdin: str | None = None) -> dict:
    """Run one ``rep.py`` process to completion; return its JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + " ".join(args))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    process = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), *args],
        cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = process.communicate(stdin, timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError("timed out: " + " ".join(args)) from None
    finally:
        # The pool's workers are in the child's session; none may outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        sys.stderr.write(err)
        raise BenchError(f"rep.py exited with {process.returncode}: " + " ".join(args))
    return json.loads(out.strip().splitlines()[-1])


def percentile(values: list[float], share: float) -> float:
    """The nearest-rank ``share`` percentile of ``values``."""
    ordered = sorted(values)
    rank = -(-len(ordered) * share // 1)
    return ordered[max(1, int(rank)) - 1]


def adjusted(seconds: float, slowdown: float) -> float:
    """Seconds at the host's fast state (see ``host.py``)."""
    return seconds / slowdown


def workload_figures(name: str, calls: list[dict], attempted: int, failed: int) -> dict:
    """The workload-specific figures of a set of untraced calls."""
    figures = dict.fromkeys(WORKLOAD_FIGURES, 0.0)
    figures["driver.ops_failed"] = failed / attempted
    latencies = [ms for call in calls for ms in call["latencies_ms"]]
    if name == "bi-power":
        per_query: dict[str, list[float]] = {}
        for call in calls:
            for number, ms in call["query_ms"].items():
                per_query.setdefault(number, []).append(ms)
        figures["driver.power_geomean_ms"] = statistics.geometric_mean(
            statistics.median(values) for values in per_query.values()
        )
        figures["driver.query_ms.p50"] = statistics.median(latencies)
        figures["driver.query_ms.p90"] = percentile(latencies, 0.9)
    if name == "bi-refresh":
        figures["driver.writes_per_s"] = statistics.median(
            call["writes"] / call["write_s"] for call in calls
        )
        figures["driver.read_block_ms.p50"] = statistics.median(latencies)
        figures["driver.read_block_ms.p80"] = percentile(latencies, 0.8)
    return figures


def measure(args: argparse.Namespace) -> tuple[dict, dict]:
    """Run the reference and run processes; return (metrics, summary)."""
    deadline = time.monotonic() + DEADLINE_S
    name = args.workload
    common = ["--workload", name, "--seed", str(args.seed)]
    ref_args = ["--role", "reference", *common]
    run_args = ["--role", "run", *common]
    if args.trace:
        passes = ["--passes", str(TRACE_PASSES[name])]
        ref_args += ["--live", *passes]
        run_args += ["--trace", "--seconds", "0", *passes]
    else:
        run_args += ["--seconds", str(args.seconds)]
    ref = child(ref_args, deadline)
    run = child(run_args, deadline, json.dumps(ref["reference"]))

    calls = run["calls"]
    setups = ref["setups"] + run["setups"]
    attempted = sum(call["reads"] + call["writes"] for call in calls) + run["checked"]
    failed = sum(call["failed"] for call in calls) + run["mismatches"]
    problems = []
    if ref["datagen"] != run["datagen"]:
        problems.append("datagen counts differ between set-ups of one seed")
    counts = [call["counts"] for call in calls + run.get("traced_calls", [])]
    if any(value != counts[0] for value in counts):
        problems.append("engine or task counts differ between calls of one seed")
    run_s = [adjusted(c["run_s"] * c["scale"], c["slowdown"]) for c in calls]
    metrics = {
        "setup_s": statistics.median(adj for _, adj in setups),
        "run_s": statistics.median(run_s),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    summary = {
        "driver.reads_per_s": statistics.median(
            c["reads"] / adjusted(c["read_s"], c["slowdown"]) for c in calls
        ),
        "run_s samples": [round(value, 4) for value in run_s],
        "unadjusted run_s samples": [round(c["run_s"] * c["scale"], 4) for c in calls],
        "host slowdowns": [round(c["slowdown"], 3) for c in calls],
        "setup_s samples": [round(adj, 4) for _, adj in setups],
        "unadjusted setup_s samples": [round(raw, 4) for raw, _ in setups],
        "ops_attempted": attempted,
        "ops_failed": failed,
        "problems": problems,
        **workload_figures(name, calls, attempted, failed),
    }
    if args.trace:
        untraced = statistics.median(adjusted(c["run_s"], c["slowdown"]) for c in calls)
        traced = statistics.median(
            adjusted(c["run_s"], c["slowdown"]) for c in run["traced_calls"]
        )
        live = statistics.median(adjusted(s, slowdown) for s, slowdown in ref["live"])
        metrics = {
            "datagen.nodes": ref["datagen"]["nodes"],
            "datagen.edges": ref["datagen"]["edges"],
            **run["layers"],
            "driver.run_s": statistics.median(c["run_s"] for c in calls),
            "driver.host_slowdown": statistics.median(c["slowdown"] for c in calls),
            "driver.reads_per_s": summary["driver.reads_per_s"],
            "queries.bi.live_serial_s": statistics.median(s for s, _ in ref["live"]),
            "driver.vs_live": untraced / live,
            "obs.trace_overhead": traced / untraced - 1.0,
            **{key: summary[key] for key in WORKLOAD_FIGURES},
        }
    return metrics, summary


def declared(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    knobs = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if knobs:
        print("refusing to run with program settings in the environment: "
              + ", ".join(knobs), file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    units = declared(bool(args.trace))
    try:
        metrics, summary = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print("measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    for key, unit in units.items():
        print(f"{key:34s} {metrics[key]:16.6f} {unit}")
    for key, value in summary.items():
        print(f"# {key}: {value}")
    for problem in summary["problems"]:
        print(f"error: {problem}", file=sys.stderr)
    result = {
        "correct": summary["ops_failed"] == 0 and not summary["problems"],
        "attempted": summary["ops_attempted"],
        "failed": summary["ops_failed"],
        "metrics": {
            key: {"value": metrics[key], "unit": unit} for key, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
