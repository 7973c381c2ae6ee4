"""Command-line entry point.

Subcommands run the built-in studies (``fig2``, ``fig3``, ``distance``
through ``experiments.run_study``, and ``properties``), run or validate a
user-supplied JSON config (``run``, ``validate``), and write one CSV plus one
SVG per measure into the output directory.  Exit codes: 0 success, 1 a
study's claims deviated or one of its searches did not converge (tables are
still written), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import experiments
from .experiments import BUILTIN_CONFIGS, ExperimentConfig

class ConfigError(Exception):
    """A user-facing usage or configuration problem; the message names the
    field or path."""


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # undecodable bytes, or an integer past Python's digit limit
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    """Parse a JSON experiment config file and check that it builds."""
    return config_from_dict(_read_config_file(path))


def config_from_dict(data: dict) -> ExperimentConfig:
    try:
        return ExperimentConfig.from_dict(data)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_set(entry: str) -> tuple[str, object]:
    if "=" not in entry:
        raise ConfigError(f"--set needs KEY=VALUE, got '{entry}'")
    key, raw = entry.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"--set needs a nonempty key in '{entry}'")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except ValueError as exc:  # an integer past Python's digit limit
        raise ConfigError(f"--set {key}: {exc}") from None
    return key, value


def apply_overrides(data: dict, sets: list[str]) -> dict:
    """Apply ``--set key=value`` pairs; a dotted key reaches a nested object
    and creates the objects missing on its path.  ``data`` is left unchanged:
    each override copies the objects on its path, and with no override
    nothing is copied."""
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object")
    out = dict(data) if sets else data
    for entry in sets:
        key, value = _parse_set(entry)
        *parents, leaf = key.split(".")
        node, where = out, "config"
        for p in parents:
            child, where = node.get(p, {}), f"{where}.{p}"
            if not isinstance(child, dict):
                raise ConfigError(f"{where}: expected an object to set '{key}'")
            node[p] = dict(child)
            node = node[p]
        node[leaf] = value
    return out


@functools.cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="athermal-markov",
        description="Thermal-channel non-Markovianity studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("fig2", "entanglement response vs bath temperature (2x2)"),
        ("fig3", "correlation and discord response (2x3)"),
        ("distance", "Markovian-family distance counter-example"),
        ("properties", "randomized property suite"),
        ("run", "run a user-supplied config"),
        ("validate", "parse a config and build everything a run builds, without running"),
    ):
        p = sub.add_parser(name, help=text)
        if name in ("run", "validate"):
            p.add_argument("--config", required=True, help="path to a JSON experiment config")
        # validate writes and prints no result, so it takes none of the output flags
        if name != "validate":
            p.add_argument("--out", default="./out", help="output directory (default ./out)")
            p.add_argument("--no-svg", action="store_true", help="skip SVG output")
            p.add_argument("--verbose", action="store_true", help="print rows and metadata")
        # the property suite reads no config, so it takes none of the config flags
        if name != "properties":
            p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                           help="override a config field (JSON-parsed value; repeatable)")
            p.add_argument("--grid", type=int, default=None, help="optimizer grid resolution")
            p.add_argument("--tol", type=float, default=None, help="optimizer value tolerance")
            p.add_argument("--seed-list", default=None, help="optimizer seed sequence identifier")
    return parser


def _resolved_config(args) -> ExperimentConfig:
    if args.command in BUILTIN_CONFIGS:
        data = BUILTIN_CONFIGS[args.command]()
    else:
        data = _read_config_file(args.config)
    flags = {"grid_resolution": args.grid, "f_tol": args.tol, "seed_sequence": args.seed_list}
    sets = args.set + [f"optimizer.{key}={json.dumps(value)}"
                       for key, value in flags.items() if value is not None]
    return config_from_dict(apply_overrides(data, sets))


def _print_result(result, verbose: bool, controls: dict):
    for measure in result.measure_names:
        rows = result.rows_for(measure)
        deltas = [r.delta for r in rows]
        print(f"{measure}: {len(rows)} rows, delta range "
              f"[{min(deltas):.3e}, {max(deltas):.3e}]")
    if verbose:
        for r in result.rows:
            print(f"  {controls[r.measure]}={r.control:g} eps={r.epsilon:g} {r.measure}: "
                  f"{r.unperturbed:.6e} -> {r.perturbed:.6e} (delta {r.delta:.3e}) [{r.status}]")
        print(json.dumps(result.metadata, indent=2, default=str))
    for d in result.deviations:
        print(f"deviation: {d}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            cfg = _resolved_config(args)
            setup = cfg.setup
            print(f"config '{cfg.name}' valid")
            print(f"dims: system {setup.h_sys.dim}, bath {setup.h_bath.dim}")
            print(f"sweep: {len(cfg.sweep_values)} x {cfg.sweep_variable} in "
                  f"[{min(cfg.sweep_values):g}, {max(cfg.sweep_values):g}]")
            print(f"epsilons: {list(cfg.epsilons)}")
            phases = [list(b.phases) for b in cfg.unitary_blocks]
            print(f"block phases: {phases}")
            print(f"measures: {list(cfg.measures)}")
            return 0

        cfg = None if args.command == "properties" else _resolved_config(args)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: {exc.strerror}") from None
        if cfg is None:
            result = experiments.run_property_suite()
            name, controls = "properties", result.metadata["controls"]
        else:
            result = (experiments.run_config(cfg) if args.command == "run"
                      else experiments.run_study(args.command, cfg))
            name, controls = cfg.name, dict.fromkeys(result.measure_names, cfg.control_name)

        try:
            written = experiments.write_outputs(result, args.out, name, svg=not args.no_svg)
        except OSError as exc:
            raise ConfigError(f"{exc.filename}: {exc.strerror}") from None
        _print_result(result, args.verbose, controls)
        for path in written:
            print(f"wrote {path}")
        return 1 if result.deviations else 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
