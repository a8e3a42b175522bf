"""Benchmark of photon_transistor presets through the public ``run_preset``.

    python3 -m perfbench --workload gain-saturation --seed 1 --seconds 20 --trace 0

One process, closed loop: one ``run_preset`` call at a time, repeated with
the same seed until ``--seconds`` are used up (at least one call).  Every
repetition's artifacts are checked.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with one timing
wrapper around ``runner.run_preset_points`` and nothing else.
``--trace 1`` alternates untraced and traced repetitions, reports the
per-layer metrics of the traced ones plus the tracing overhead, and
writes the spans to ``.perfbench_out/`` at the root of the checkout.

The benchmark pins BLAS/OpenMP threads to 1, so the only parallelism is
the workload's process pool, and never uses more pool workers than the
CPUs it may run on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from .tracer import AGGREGATE, SPAN, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
ARTIFACTS = ("manifest.json", "sweep.csv", "summary.json")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    shots: int      # per sweep point
    workers: int    # upper bound; clamped to the usable CPUs
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("gain-saturation", "fig4ab", 2000, 1,
             "the engine scattering loop (evolve_source_window) does almost all "
             "the work; analysis is a 200-resample gain bootstrap"),
    Workload("retrieval-decay", "fig4e", 10_000, 1,
             "1 us window keeps the scattering loop trivial; time goes to fixed "
             "per-shot cost and the retrieval_curve/gain bootstraps"),
    Workload("spectra-parallel", "fig2", 1000, 2,
             "only workload with off-resonance transmission spectra and a "
             "process pool (one per sweep point); 60-config manifest"),
)}

END_TO_END_UNITS = {"wall_s": "s", "sim_us_per_shot": "us", "setup_s": "s",
                    "peak_rss_mb": "MB"}

# per-layer metric -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "engine.source_window_s": ("s", "sim_us_per_shot and wall_s on gain-saturation; "
                               "barely wall_s on retrieval-decay"),
    "engine.scatter_events_per_shot": ("count", "sim_us_per_shot and wall_s on "
                                       "gain-saturation"),
    "engine.run_shot_self_s": ("s", "sim_us_per_shot on retrieval-decay"),
    "engine.gate_storage_s": ("s", "sim_us_per_shot on retrieval-decay"),
    "engine.detect_s": ("s", "sim_us_per_shot on retrieval-decay"),
    "engine.pools_created": ("count", "wall_s on spectra-parallel; 0 on the serial workloads"),
    "engine.worker_processes": ("count", "wall_s on spectra-parallel; 0 on the serial "
                                "workloads"),
    "engine.collapse_fraction": ("fraction", "nothing: physics sentinel, moves only "
                                 "within sampling noise"),
    "engine.self_s": ("s", "layer self time in the parent process"),
    "qed.transmission_spectrum_calls": ("count", "sim_us_per_shot on spectra-parallel; "
                                        "0 on the resonant workloads"),
    "qed.transmission_spectrum_s": ("s", "sim_us_per_shot on spectra-parallel"),
    "qed.sample_cooperativity_calls": ("count", "wall_s on gain-saturation, slightly"),
    "qed.mean_blocked_transmission_s": ("s", "wall_s on gain-saturation, slightly"),
    "qed.self_s": ("s", "layer self time in the parent process"),
    "stats.retrieval_curve_s": ("s", "wall_s on retrieval-decay"),
    "stats.gain_s": ("s", "wall_s on retrieval-decay; little on gain-saturation"),
    "stats.fit_exponential_calls": ("count", "wall_s on retrieval-decay"),
    "stats.fit_exponential_failures": ("count", "wall_s on retrieval-decay"),
    "stats.average_spectrum_s": ("s", "wall_s on spectra-parallel"),
    "stats.self_s": ("s", "layer self time in the parent process"),
    "runner.simulate_s": ("s", "wall_s on spectra-parallel"),
    "runner.analyze_s": ("s", "wall_s on retrieval-decay; little on gain-saturation"),
    "runner.write_s": ("s", "wall_s on spectra-parallel"),
    "runner.bytes_written": ("bytes", "wall_s on spectra-parallel"),
    "runner.self_s": ("s", "layer self time in the parent process"),
    "config.config_as_dict_s": ("s", "wall_s on spectra-parallel"),
    "config.self_s": ("s", "layer self time in the parent process"),
    "trace.overhead_s": ("s", "nothing: traced wall_s minus untraced wall_s"),
}
LAYERS = ("engine", "qed", "stats", "runner", "config")

# The only wrapper of an untraced repetition: it gives sim_us_per_shot.
TIMING_TARGETS = [("runner", "run_preset_points", SPAN)]


def _collapsed(records) -> int:
    return sum(1 for r in records if r.collapsed)


def _scatter_events(result) -> int:
    return result[1].n_scatters


# Per-shot functions are aggregated per sweep point; the rest are spans.
TRACE_TARGETS = [
    ("runner", "run_preset", SPAN),
    ("runner", "run_preset_points", SPAN),
    ("runner", "analyze_preset", SPAN),
    ("config", "config_as_dict", SPAN),
    ("engine", "run_experiment", SPAN, _collapsed),
    ("engine", "run_shot", AGGREGATE),
    ("engine", "sample_gate_storage", AGGREGATE),
    ("engine", "apply_spin_decay", AGGREGATE),
    ("engine", "evolve_source_window", AGGREGATE, _scatter_events),
    ("engine", "retrieve_gate", AGGREGATE),
    ("engine", "detect", AGGREGATE),
    ("qed", "sample_cooperativity", AGGREGATE),
    ("qed", "cavity_transmission_spectrum", AGGREGATE),
    ("qed", "mean_blocked_transmission", SPAN),
    ("stats", "average_spectrum", SPAN),
    ("stats", "resonant_reference", SPAN),
    ("stats", "switching_contrast", SPAN),
    ("stats", "gain", SPAN),
    ("stats", "retrieval_curve", SPAN),
    ("stats", "fit_linear", SPAN),
    ("stats", "fit_exponential", AGGREGATE),
]

TRACE_NOTE = ("spans are recorded in the parent process only; per-shot functions "
              "that run in forked pool workers (spectra-parallel) are summed per "
              "worker and merged at pool shutdown, so their *_s values add up busy "
              "time over workers, and the layer self times (*.self_s) cover the "
              "parent process only")


@dataclass
class Rep:
    wall_s: float | None   # None when run_preset raised
    sim_s: float | None
    digest: str
    bytes_written: int
    problems: list
    band_failures: list
    tracer: Tracer | None = None


def pin_threads() -> None:
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    import platform
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": usable_cpus(), "cpu_model": cpu,
            "blas_threads": 1}


_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from photon_transistor import presets, runner
preset = presets.get_preset(sys.argv[2])
for point in preset.points:
    presets.scale_point_shots(point, int(sys.argv[3]), int(sys.argv[4]))
runner.reference_for(preset.name)
print(time.perf_counter() - t0)
"""


def measure_setup(workload: Workload, seed: int) -> list[float]:
    """Import of photon_transistor plus building and validating the preset,
    each sample in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), workload.preset,
             str(workload.shots), str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def check_outputs(out_dir: Path, preset_name: str) -> tuple[list, list]:
    """Problems that make a repetition fail, and the reference bands it
    misses (reported, not failed: see README)."""
    from photon_transistor import runner
    summary = json.loads((out_dir / "summary.json").read_text())
    problems = [f"non-finite {name}.{field}" for name, entry in sorted(summary.items())
                for field, value in sorted(entry.items()) if not math.isfinite(value)]
    try:
        report = runner.compare_report(summary, runner.reference_for(preset_name))
    except runner.SchemaError as exc:
        return problems + [str(exc)], []
    return problems, [line for line in report.lines if not line.startswith("PASS")]


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in ARTIFACTS:
        h.update(name.encode() + b"\0" + (out_dir / name).read_bytes())
    return h.hexdigest()


def run_rep(preset, shots: int, seed: int, workers: int, out_dir: Path,
            traced: bool = False) -> Rep:
    """One ``run_preset`` call into ``out_dir``, timed and checked."""
    from photon_transistor import runner
    targets = TRACE_TARGETS if traced else TIMING_TARGETS
    worker_dir = out_dir / "workers" if traced else None
    with Tracer(targets, worker_dir=worker_dir) as tracer:
        t0 = time.perf_counter()
        runner.run_preset(preset, shots, seed, out_dir, workers=workers)
        wall = time.perf_counter() - t0
    sim = tracer.total_s("runner.run_preset_points")
    problems, bands = check_outputs(out_dir, preset.name)
    written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    return Rep(wall, sim, digest(out_dir), written, problems, bands,
               tracer if traced else None)


def layer_metrics(rep: Rep, total_shots: int) -> dict:
    tr = rep.tracer
    metrics = {
        "engine.source_window_s": tr.total_s("engine.evolve_source_window"),
        "engine.scatter_events_per_shot":
            tr.tally("engine.evolve_source_window") / total_shots,
        "engine.run_shot_self_s": tr.self_s("engine.run_shot"),
        "engine.gate_storage_s": tr.total_s("engine.sample_gate_storage"),
        "engine.detect_s": tr.total_s("engine.detect"),
        "engine.pools_created": tr.pools_created,
        "engine.worker_processes": len(tr.worker_pids),
        "engine.collapse_fraction": tr.tally("engine.run_experiment") / total_shots,
        "qed.transmission_spectrum_calls": tr.calls("qed.cavity_transmission_spectrum"),
        "qed.transmission_spectrum_s": tr.total_s("qed.cavity_transmission_spectrum"),
        "qed.sample_cooperativity_calls": tr.calls("qed.sample_cooperativity"),
        "qed.mean_blocked_transmission_s": tr.total_s("qed.mean_blocked_transmission"),
        "stats.retrieval_curve_s": tr.total_s("stats.retrieval_curve"),
        "stats.gain_s": tr.total_s("stats.gain"),
        "stats.fit_exponential_calls": tr.calls("stats.fit_exponential"),
        "stats.fit_exponential_failures": tr.failures("stats.fit_exponential"),
        "stats.average_spectrum_s": tr.total_s("stats.average_spectrum"),
        "runner.simulate_s": tr.total_s("runner.run_preset_points"),
        "runner.analyze_s": tr.total_s("runner.analyze_preset"),
        "runner.write_s": tr.self_s("runner.run_preset"),
        "runner.bytes_written": rep.bytes_written,
        "config.config_as_dict_s": tr.total_s("config.config_as_dict"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = tr.layer_self_s(layer)
    return metrics


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            run_dir: Path) -> dict:
    """Repeat the workload until ``seconds`` are used; with ``traced``,
    alternate untraced and traced repetitions."""
    from photon_transistor import presets
    preset = presets.get_preset(workload.preset)
    workers = min(workload.workers, usable_cpus())
    total_shots = workload.shots * len(preset.points)
    plan = [False, True] if traced else [False]
    reps: list[Rep] = []
    cycle_s: list[float] = []
    start = time.perf_counter()
    first_digest = None
    while True:
        t0 = time.perf_counter()
        for is_traced in plan:
            out_dir = run_dir / f"rep{len(reps)}"
            try:
                rep = run_rep(preset, workload.shots, seed, workers, out_dir,
                              traced=is_traced)
            except Exception as exc:  # a raising run_preset is a failed repetition
                traceback.print_exc()
                rep = Rep(None, None, "", 0, [f"run_preset raised {exc!r}"], [])
            else:
                first_digest = first_digest or rep.digest
                if rep.digest != first_digest:
                    rep.problems.append("artifact digest differs from the first repetition")
            reps.append(rep)
            shutil.rmtree(out_dir, ignore_errors=True)
        cycle_s.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(cycle_s) > seconds:
            break
    return {"workers": workers, "total_shots": total_shots, "reps": reps}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python3 -m perfbench",
        description="Benchmark photon_transistor presets end to end and per layer.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "photon_transistor" / "__init__.py").is_file():
        print(f"perfbench: no photon_transistor sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    setup = [] if args.trace else measure_setup(workload, args.seed)
    env = environment()
    run_dir = OUT / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    reps = result["reps"]
    failed = sum(1 for r in reps if r.problems)
    total_shots = result["total_shots"]

    print(f"perfbench environment {json.dumps(env, sort_keys=True)}")
    print(f"perfbench workload {workload.name}: preset {workload.preset}, "
          f"{workload.shots} shots/point x {total_shots // workload.shots} points, "
          f"workers {result['workers']}, seed {args.seed}, {len(reps)} repetitions, "
          f"failed_fraction {failed / len(reps):.4g}")
    for i, r in enumerate(reps):
        for line in r.problems:
            print(f"perfbench FAILED rep{i}: {line}")
    for line in next((r.band_failures for r in reps if r.wall_s is not None), []):
        print(f"perfbench band excursion (statistical at this size, not failed): {line}")

    untraced = [r for r in reps if r.wall_s is not None and r.tracer is None]
    traced = [r for r in reps if r.tracer is not None]
    if not untraced or (args.trace and not traced):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    if args.trace:
        per_rep = [layer_metrics(r, total_shots) for r in traced]
        values = {name: statistics.median(m[name] for m in per_rep)
                  for name in per_rep[0]}
        values["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                      - statistics.median(r.wall_s for r in untraced))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": workload.name, "seed": args.seed, "environment": env,
            "note": TRACE_NOTE, "metrics": metrics,
            "reps": [r.tracer.dump() | {"wall_s": r.wall_s} for r in traced],
        }, indent=1))
        print(f"perfbench trace: {TRACE_NOTE}")
        print(f"perfbench trace written to {trace_path.relative_to(ROOT)}")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "wall_s": statistics.median(r.wall_s for r in untraced),
            "sim_us_per_shot": statistics.median(r.sim_s for r in untraced)
                               / total_shots * 1e6,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        print(f"perfbench failed_fraction = {failed / len(reps):.4g} "
              f"({failed} of {len(reps)} repetitions)")
    for name, m in metrics.items():
        print(f"perfbench {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0
