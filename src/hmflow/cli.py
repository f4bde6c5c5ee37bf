"""Command-line entry point: run / sweep / check over key-value configs."""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigurationError, HmflowError
from . import runner


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}")


def _load_config(path: str, out_dir: str) -> runner.RunConfig:
    raw = runner.parse_config_text(_read(path))
    return runner.build_run_config(raw, out_dir=out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hmflow",
        description="Corotational harmonic-map heat flow: scenario runs, "
                    "parameter sweeps, and config validation.")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="parallel workers for sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--grid", required=True,
                         help="parameter grid file (key = v1, v2, ...)")
    p_check = sub.add_parser("check", help="validate a config and its setup")
    p_check.add_argument("config")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load_config(args.config, args.out)
            code = runner.run(cfg)
            if code == 0:
                print(f"run ok: scenario {cfg.scenario}, artifacts in {cfg.out_dir}")
            elif code == 2:
                print(f"run aborted by the solver; partial artifacts in "
                      f"{cfg.out_dir}", file=sys.stderr)
            else:
                print(f"run finished but scenario checks failed; see "
                      f"{cfg.out_dir}", file=sys.stderr)
            return code
        if args.command == "sweep":
            base_raw = runner.parse_config_text(_read(args.config))
            axes = runner.parse_grid_file(_read(args.grid))
            rows = runner.sweep(base_raw, axes, args.out, threads=args.threads)
            print(f"sweep complete: {len(rows)} runs, table in {args.out}/sweep.csv")
            return 0
        # check
        cfg = _load_config(args.config, args.out)
        runner._setup(cfg)
        print(f"config ok: scenario {cfg.scenario}, m={cfg.m}, "
              f"grid ({cfg.r_min:g}, {cfg.r_max:g}, {cfg.n}), "
              f"ic {cfg.ic_family}")
        return 0
    except ConfigurationError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    except HmflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
