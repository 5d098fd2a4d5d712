"""Command-line front end: witness runs, sweeps, structure checks, cost model.

Exit codes: 0 success, 2 config error, 3 numerical-invariant violation,
4 Monte Carlo nontermination abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .hilbert import InvariantViolation
from .info import check_structure
from .objectivity import require_spec_fits
from .protocol import (_EXPERIMENTS, FRAMEWORK_SQD, NonterminatingSampling, cost_model,
                       run_witness, run_witnesses)
from .serialize import (
    ConfigError,
    config_from_dict,
    load_state,
    read_json,
    report_to_json,
    report_to_sweep_row,
    spec_by_name,
    spec_from_dict,
    sweep_from_dict,
    sweep_rows_to_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_NONTERMINATING = 4


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc


def _write_reports(args: argparse.Namespace, configs: list, reports: list,
                   out: str | None) -> None:
    """Write ``witness`` or ``sweep`` output: a CSV row per (config, report)
    pair, or JSON, an object for ``witness`` and a list for ``sweep``."""
    if args.format == "csv":
        text = sweep_rows_to_csv([report_to_sweep_row(config, report)
                                  for config, report in zip(configs, reports)])
    elif args.command == "witness":
        text = report_to_json(reports[0])
    else:
        text = json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)
    _write_out(text, out)


def cmd_witness(args: argparse.Namespace) -> int:
    config = config_from_dict(read_json(args.config), seed_override=args.seed)
    _write_reports(args, [config], [run_witness(config)], args.out)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    data = read_json(args.config)
    configs = sweep_from_dict(data, seed_override=args.seed)
    out = args.out if args.out is not None else data.get("output_path")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"field 'output_path': expected a path, got {out!r}")
    _write_reports(args, configs, run_witnesses(configs), out)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    rho = load_state(args.state)
    try:
        spec = spec_by_name(args.subspace)
    except ConfigError:  # not a preset name: a spec file, if there is one
        if not Path(args.subspace).exists():
            raise
        spec = spec_from_dict(read_json(args.subspace))
    if args.fragment:
        fragment = [f.strip() for f in args.fragment.split(",") if f.strip()]
        if not fragment:
            raise ConfigError("field 'fragment': expected a nonempty list of environments")
        try:
            fragment = list(spec.select(fragment))  # spec order, each environment once
            rho.layout.subset(spec.members_of(fragment))
        except InvariantViolation as exc:
            raise ConfigError(f"field 'fragment': {exc}") from exc
    else:
        fragment = list(spec.environments_in(rho.layout.labels))
    if not fragment:
        raise ConfigError("field 'fragment': no spec environment is present in the state")
    try:
        require_spec_fits(spec, fragment, rho.layout)
    except InvariantViolation as exc:
        raise ConfigError(f"field 'subspace': {exc}") from exc
    verdict = check_structure(rho, spec, fragment)
    payload = {"fragment": fragment, **dataclasses.asdict(verdict)}
    _write_out(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return EXIT_OK


def cmd_cost(args: argparse.Namespace) -> int:
    result = cost_model(args.m_envs, args.c, args.p_cnot, args.f_cnot)
    if args.format == "json":
        _write_out(json.dumps(dataclasses.asdict(result), sort_keys=True, indent=2),
                   args.out)
        return EXIT_OK
    lines = [
        f"environments (M):       {args.m_envs}",
        f"counts per basis (C):   {args.c}",
        f"p_cnot:                 {args.p_cnot}",
        f"f_cnot:                 {args.f_cnot}",
        f"tomography runs:        {result.tomography_runs}",
        f"witness runs:           {result.witness_runs}",
        f"witness wins:           {'yes' if result.witness_wins else 'no'}",
        f"crossover p_cnot:       {result.crossover_p}",
    ]
    _write_out("\n".join(lines), args.out)
    return EXIT_OK


@functools.cache  # built once per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdarwin",
        description="Witness non-objectivity of simulated system-environment states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    witness = sub.add_parser("witness", help="run one witness evaluation")
    witness.add_argument("--config", required=True, help="protocol config JSON")
    witness.add_argument("--out", default=None, help="output path (default stdout)")
    witness.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
    witness.add_argument("--format", choices=("json", "csv"), default="json")
    witness.set_defaults(func=cmd_witness)

    sweep = sub.add_parser("sweep", help="sweep noise strengths and fragments")
    sweep.add_argument("--config", required=True, help="sweep spec JSON")
    sweep.add_argument("--out", default=None, help="output path (default stdout)")
    sweep.add_argument("--seed", type=int, default=None,
                       help="override the sweep seed")
    sweep.add_argument("--format", choices=("json", "csv"), default="csv")
    sweep.set_defaults(func=cmd_sweep)

    check = sub.add_parser("check", help="structure-check a state file")
    check.add_argument("--state", required=True, help="state JSON file")
    presets = [experiment.preset for experiment in _EXPERIMENTS.values()]
    check.add_argument("--subspace", default=_EXPERIMENTS[FRAMEWORK_SQD].preset,
                       help=", ".join(map(repr, presets)) + ", or a spec JSON path")
    check.add_argument("--fragment", default=None,
                       help="comma-separated environment names (default: all)")
    check.add_argument("--out", default=None, help="output path (default stdout)")
    check.add_argument("--seed", type=int, default=None,
                       help="accepted for uniformity; this command is deterministic")
    check.set_defaults(func=cmd_check)

    cost = sub.add_parser("cost", help="compare run counts with tomography")
    cost.add_argument("--m-envs", type=int, required=True)
    cost.add_argument("--c", type=int, required=True)
    cost.add_argument("--p-cnot", type=float, required=True)
    cost.add_argument("--f-cnot", type=float, default=1.0)
    cost.add_argument("--format", choices=("table", "json"), default="table")
    cost.add_argument("--out", default=None, help="output path (default stdout)")
    cost.add_argument("--seed", type=int, default=None,
                      help="accepted for uniformity; this command is deterministic")
    cost.set_defaults(func=cmd_cost)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except NonterminatingSampling as exc:
        sys.stderr.write(f"sampling aborted: {exc}\n")
        return EXIT_NONTERMINATING
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
