"""Record repeated benchmark runs, one seed per run, into a results file.

    python3 -m perfbench.record --seeds 1-10 --out perfbench/results/<name>.json

For every workload it makes one ``--trace 0`` run per seed and one
``--trace 1`` run with the first seed, each as its own process with the
``run_seconds`` of BENCHMARK.json. For each end-to-end metric it writes
the values, their median and quartiles, and the spread: the distance
between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from .bench import ROOT, WORKLOADS

ENV_PREFIX = "perfbench environment "


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[len(ENV_PREFIX):]) for line in lines
               if line.startswith(ENV_PREFIX))
    return json.loads(lines[-1]), env


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.record")
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    record = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in args.workloads:
        runs = []
        for seed in seeds:
            result, env = run_once(name, seed, seconds, 0)
            runs.append(result)
            print(name, seed, {k: round(m["value"], 4) for k, m in result["metrics"].items()},
                  flush=True)
        traced, _ = run_once(name, seeds[0], seconds, 1)
        record["environment"] = env
        record["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {metric: summarize([r["metrics"][metric]["value"] for r in runs])
                           | {"unit": runs[0]["metrics"][metric]["unit"]}
                           for metric in runs[0]["metrics"]},
            "per_layer_seed": seeds[0],
            "per_layer": {metric: m["value"] for metric, m in traced["metrics"].items()},
        }
        for metric, s in record["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric}: median {s['median']:.6g} {s['unit']}, "
                  f"spread {s['spread']:.4f}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
