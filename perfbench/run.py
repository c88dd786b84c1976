"""waveobs benchmark: end-to-end experiment times, or a traced per-layer run.

    python3 perfbench/run.py --workload {regular,trapping,quasimode}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's two experiments take turns, one call at a
time, until ``S`` seconds have run (each at least once).  Each call is
timed with ``time.perf_counter``, rescaled to a nominal machine speed
by the gauge in ``refspeed.py``, and then checked.  Each time metric is
the median over the run.  The package's ``functools`` caches are emptied
before every call, so each call starts as cold as a fresh CLI
invocation.

``--trace 0`` also measures set-up in fresh interpreters and prints the
end-to-end metrics.  ``--trace 1`` follows the untraced calls with one
call of each experiment under the span recorder (``spans.py``), checks
that it reproduces the untraced check values exactly, and prints the
per-layer metrics.

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is the result object; the line before it is the full run
record (metadata, every sample, every check), which is also written under
``perfbench/out/`` together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import refspeed
import spans

# One BLAS thread, set before numpy loads; the set-up probes inherit it.
# With the library default of one thread per CPU on a 2-CPU machine,
# hum_control ran 13% slower with a +-15% spread between calls, and the
# divergence sweep spent 1.8 CPU-seconds per second of wall time.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up samples per run; each is a fresh interpreter (~1 s)
SETUP_SAMPLES = 5


def run_call(exp, inputs, clear_caches, gauge) -> dict:
    """Time and check one call from cold caches; failures are counted.

    ``seconds`` is the wall time, ``scaled_s`` the same rescaled to the
    gauge's nominal machine speed.
    """
    clear_caches()
    start = time.perf_counter()
    try:
        result = exp.call(inputs)
    except Exception as exc:
        seconds = time.perf_counter() - start
        scaled = seconds * gauge.factor()
        traceback.print_exc(file=sys.stderr)
        return {"metric": exp.metric, "seconds": seconds,
                "scaled_s": scaled, "values": None,
                "problems": [f"raised {exc!r}"]}
    seconds = time.perf_counter() - start
    scaled = seconds * gauge.factor()
    try:
        values, problems = exp.check(result)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        values, problems = None, ["check raised"]
    return {"metric": exp.metric, "seconds": seconds, "scaled_s": scaled,
            "values": values, "problems": list(problems)}


def measure_setup(workload: str, seed: int, gauge) -> tuple:
    """Seconds from interpreter start to inputs ready, one per sample:
    wall times, and the same rescaled to the gauge's nominal speed."""
    wall, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True)
        wall.append(float(proc.stdout.split()[-1]) - start)
        scaled.append(wall[-1] * gauge.factor())
    return wall, scaled


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def metadata(args) -> dict:
    import mpmath
    import numpy
    import scipy
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_rev": _git_rev(),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "blas": {
            "name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        },
    }


def _summary(samples: list) -> dict:
    return {"median": statistics.median(samples), "n": len(samples),
            "samples": samples}


def layer_values(recorder, names) -> dict:
    """Per-layer calls, self times, exact counts and their ratios.

    A wrapped function or counter that the workload never reaches reads 0.
    """
    values: dict = {name: 0 for name in names
                    if name.endswith((".calls", ".self_s"))}
    values.update({key: 0 for key, _ in spans.COUNTERS.values()})
    values.update(recorder.counts)
    for name, (calls, own) in recorder.by_name().items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = own

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    values["wavesim.ns_per_node_step"] = ratio(
        values["wavesim.evolve.self_s"]
        + values["wavesim.evolve_inhomogeneous.self_s"],
        values["wavesim.node_steps"], 1e9)
    values["quasimodes.us_per_rhs_eval"] = ratio(
        values["quasimodes.solve_quasimode.self_s"],
        values["quasimodes.rhs_evals"], 1e6)
    values["observability.hum_control.s_per_cg_iteration"] = ratio(
        values["observability.hum_control.self_s"],
        values["observability.hum_control.cg_iterations"], 1.0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "waveobs" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'waveobs'}; run from the root "
              "of a waveobs checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]

    # One CPU for the run and its set-up probes, so that the gauge reads
    # the speed of the CPU that ran the sections it rescales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    gauge = refspeed.SpeedGauge()
    if args.trace:
        setup_wall = setup_scaled = []
    else:
        setup_wall, setup_scaled = measure_setup(args.workload, args.seed,
                                                 gauge)
    inputs = workload.build(args.seed)

    def call(exp):
        return run_call(exp, inputs, workloads.clear_caches, gauge)

    # the experiments take turns until time is up, each at least once
    outcomes = []
    began = time.perf_counter()
    for exp in itertools.cycle(workload.experiments):
        if (len(outcomes) >= len(workload.experiments)
                and time.perf_counter() - began >= args.seconds):
            break
        outcomes.append(call(exp))

    record = {"meta": metadata(args), "calls": list(outcomes)}
    for key, field in (("experiments", "seconds"),
                       ("experiments_scaled", "scaled_s")):
        record[key] = {
            exp.metric: _summary([o[field] for o in outcomes
                                  if o["metric"] == exp.metric])
            for exp in workload.experiments}
    record["gauge"] = {"nominal_s": refspeed.NOMINAL_S,
                       **_summary(gauge.readings)}
    OUT.mkdir(exist_ok=True)

    if args.trace:
        recorder = spans.SpanRecorder()
        with recorder.installed(workloads.MODULES):
            traced = [call(exp) for exp in workload.experiments]
        # the wrappers must change nothing they measure
        plain = {o["metric"]: o["values"] for o in outcomes}
        for tr in traced:
            if tr["values"] != plain[tr["metric"]]:
                tr["problems"].append("traced check values differ from "
                                      "the untraced run")
        outcomes += traced
        metric_specs = spec["per_layer"]
        values = layer_values(recorder, [m["name"] for m in metric_specs])
        untraced = sum(e["median"] for e in record["experiments"].values())
        values["trace.overhead_s"] = recorder.top_level_seconds() - untraced
        record["trace"] = {
            "untraced_calls_s": untraced,
            "traced_calls_s": sum(o["seconds"] for o in traced),
            "top_level_spans_s": recorder.top_level_seconds(),
            "self_times_sum_s": sum(recorder.self_times()),
            "spans": len(recorder.spans),
        }
        record["traced_calls"] = traced
        t0 = recorder.spans[0]["start"] if recorder.spans else 0.0
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps([{**s, "start": s["start"] - t0, "end": s["end"] - t0}
                        for s in recorder.spans]))
    else:
        # gated times are medians at the gauge's nominal speed; the
        # record keeps the wall-clock samples too
        first, second = (record["experiments_scaled"][exp.metric]["median"]
                         for exp in workload.experiments)
        values = {
            "setup_s": statistics.median(setup_scaled),
            "first_call_s": first,
            "second_call_s": second,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["setup_s"] = _summary(setup_wall)
        record["setup_scaled_s"] = _summary(setup_scaled)
        metric_specs = spec["end_to_end"]

    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o["problems"])
    values["success_rate"] = 1.0 - failed / attempted
    record["error_rate"] = failed / attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record["result"] = result

    text = json.dumps(record, default=str)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(text)
    print(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
