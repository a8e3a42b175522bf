"""Command-line interface.

    photon-transistor run --preset fig3 --shots 20000 --seed 7 --out out/fig3
    photon-transistor run --config my_run.cfg --out out/custom
    photon-transistor compare --summary out/fig3/summary.json --preset fig3
    photon-transistor write-config --preset g2 --out g2.cfg
    photon-transistor list-presets

Exit codes: 0 success, 1 comparison failure, 2 usage, config or run error.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config, write_config
from .presets import PRESET_BUILDERS, custom_preset, get_preset
from .runner import compare_report, reference_for, run_preset


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photon-transistor",
        description="Monte Carlo simulator of a cavity-QED optical transistor "
                    "gated by one stored photon")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a preset or a config file")
    run.add_argument("--preset", choices=sorted(PRESET_BUILDERS), help="preset name")
    run.add_argument("--config", help="path to a run configuration file")
    run.add_argument("--shots", type=int,
                     help="shots per sweep point (default: the config file's [run] "
                          "n_shots, or 2000 for a preset)")
    run.add_argument("--seed", type=int,
                     help="run seed, from which each point's master seed is derived "
                          "(default: the config file's [run] master_seed, or 12345 "
                          "for a preset)")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--threads", type=int, default=1, metavar="N",
                     help="processes that compute each sweep point, at least 1, the "
                          "calling one included, so a point forks at most N-1; affects "
                          "wall time only, never results")

    cmp_ = sub.add_parser("compare", help="check a summary against reference bands")
    cmp_.add_argument("--summary", required=True, help="path to summary.json")
    group = cmp_.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(PRESET_BUILDERS),
                       help="use the built-in reference table for this preset")
    group.add_argument("--reference", help="path to a JSON reference table")

    wc = sub.add_parser("write-config", help="write a preset point's config file")
    wc.add_argument("--preset", required=True, choices=sorted(PRESET_BUILDERS))
    wc.add_argument("--point", type=int, default=0, help="sweep point index")
    wc.add_argument("--out", required=True, help="config file to write")

    sub.add_parser("list-presets", help="list available presets")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            if (args.preset is None) == (args.config is None):
                print("error: exactly one of --preset/--config is required",
                      file=sys.stderr)
                return 2
            if args.config is not None:
                config = load_config(args.config)
                preset, shots, seed = custom_preset(config), config.n_shots, config.master_seed
            else:
                preset, shots, seed = get_preset(args.preset), 2000, 12345
            result = run_preset(preset, n_shots=shots if args.shots is None else args.shots,
                                seed=seed if args.seed is None else args.seed,
                                out_dir=args.out, workers=args.threads)
            print(f"wrote {result.manifest_path}")
            print(f"wrote {result.sweep_path}")
            print(f"wrote {result.summary_path}")
            return 0
        if args.command == "compare":
            reference = (reference_for(args.preset) if args.preset
                         else args.reference)
            report = compare_report(args.summary, reference)
            print(report)
            return 0 if report.passed else 1
        if args.command == "write-config":
            preset = get_preset(args.preset)
            if not 0 <= args.point < len(preset.points):
                print(f"error: point index out of range (0..{len(preset.points) - 1})",
                      file=sys.stderr)
                return 2
            write_config(preset.points[args.point].config, args.out)
            print(f"wrote {args.out}")
            return 0
        if args.command == "list-presets":
            for name in sorted(PRESET_BUILDERS):
                print(f"{name}: {get_preset(name).description}")
            return 0
    except (ValueError, OSError, RuntimeError) as exc:  # config, schema, JSON, run errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
