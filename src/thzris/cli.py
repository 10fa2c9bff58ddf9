"""Command-line interface.

Subcommands:
  run               run an experiment from a config file or preset, write CSV
  presets           list the built-in figure presets (or show one as a config)
  config-reference  print every config key with its default and meaning
  replay            re-derive a dumped realization's agd and random sweep rates

Exit codes: 0 success, 2 configuration/usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import harness
from .channel import DumpError
from .harness import ConfigError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thzris",
        description="Link-level simulation lab for graphene-RIS assisted THz MIMO")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and write its CSV")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a key = value config file")
    src.add_argument("--preset", help="built-in preset name (see 'presets list')")
    run.add_argument("--seed", type=int, help="override the master seed")
    run.add_argument("--out", default=".", help="output directory (default .)")
    run.add_argument("--workers", type=int, default=1,
                     help="parallel realization workers (default 1)")
    run.add_argument("--dump-channels", metavar="DIR",
                     help="write per-realization channel dumps into DIR")
    run.add_argument("--timing", action="store_true",
                     help="record wall-clock times (makes CSV non-reproducible)")

    presets = sub.add_parser("presets", help="list or show built-in presets")
    presets.add_argument("action", choices=("list", "show"))
    presets.add_argument("name", nargs="?", help="preset name for 'show'")

    sub.add_parser("config-reference", help="print all config keys and defaults")

    replay = sub.add_parser("replay", help="rebuild a dumped channel realization")
    replay.add_argument("--channel-dump", required=True, help="dump file path")
    replay.add_argument("--snr-db", type=float, default=10.0,
                        help="SNR for the replayed rate comparison (default 10)")
    return parser


def _cmd_run(args) -> int:
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    if args.config:
        config = harness.load_config(args.config)
        stem = os.path.splitext(os.path.basename(args.config))[0]
    else:
        config = harness.preset(args.preset)
        stem = args.preset
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)

    for flag, path in (("--dump-channels", args.dump_channels), ("--out", args.out)):
        if path:
            try:
                os.makedirs(path, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"{flag}: cannot create directory {path}: {exc}") from None
    out_path = os.path.join(args.out, stem + ".csv")

    rows = harness.run_experiment(config, workers=args.workers, dump_dir=args.dump_channels,
                                  timing=args.timing)
    harness.emit_csv(rows, out_path)

    top_snr = max(config.snr_grid_db)
    print(f"wrote {len(rows)} rows to {out_path}")
    print(f"mean rate at {top_snr:g} dB (first sweep point):")
    first_value = rows[0].sweep_value
    for row in rows:
        if row.snr_db == top_snr and row.sweep_value == first_value:
            print(f"  {row.scheme:<10} {row.mean_rate:8.3f} bps/Hz")
    return 0


def _cmd_presets(args) -> int:
    if args.action == "list":
        if args.name:
            raise ConfigError(f"'presets list' takes no preset name, got '{args.name}'")
        print("\n".join(harness.preset_names()))
        return 0
    if not args.name:
        raise ConfigError("'presets show' needs a preset name")
    print(harness.config_to_text(harness.preset(args.name)), end="")
    return 0


def _cmd_replay(args) -> int:
    if not abs(args.snr_db) <= harness.MAX_SNR_DB:   # also rejects nan
        raise ConfigError(f"--snr-db must be finite and lie in [-{harness.MAX_SNR_DB}, "
                          f"{harness.MAX_SNR_DB}], got {args.snr_db}")
    summary, config, rates = harness.replay_realization(args.channel_dump, args.snr_db)
    print("\n".join(summary))
    for label, rate in rates.items():
        print(f"{label:<8} rate at {args.snr_db:g} dB: {rate:.3f} bps/Hz "
              f"({config.n_ris} elements, {config.n_streams} streams)")
    return 0


def cli_main(argv) -> int:
    """Entry point used by tests; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "presets":
            return _cmd_presets(args)
        if args.command == "config-reference":
            print(harness.config_reference(), end="")
            return 0
        if args.command == "replay":
            return _cmd_replay(args)
        return 2
    except (ConfigError, DumpError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surfaced as a runtime failure, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
