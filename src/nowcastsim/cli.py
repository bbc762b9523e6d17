"""Command-line front end.

Commands: run (simulate a scenario and write per-wave summary tables plus
a reproducibility manifest), validate (run's input checks alone: both call
load_inputs), schedules (look up what an instrument pays at a date), and
synth (write a synthetic population).

Exit codes: 0 success, 1 validation error, 2 infeasible calibration,
3 I/O error. Outputs are byte-identical across runs with an identical
manifest, at any --threads value.
"""
from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import os
import sys

# The engine makes no BLAS or LAPACK call, so OpenBLAS's thread pool, which
# numpy starts on import, only costs start-up time. This runs before the first
# import below that loads numpy; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__, metrics, population, scenario, taxben
from .calibration import AlignmentError
from .files import finite
from .money import cents, euros
from .population import PopulationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3

DEFAULT_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
DEFAULT_POLICY_DIR = os.path.join(DEFAULT_DATA_DIR, "policy")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _dir_digest(path) -> str:
    digest = hashlib.sha256()
    for root, _, names in sorted(os.walk(path)):
        for name in sorted(names):
            full = os.path.join(root, name)
            digest.update(os.path.relpath(full, path).encode())
            digest.update(_sha256(full).encode())
    return digest.hexdigest()


def write_outputs(out_dir, summaries, manifest):
    os.makedirs(out_dir, exist_ok=True)
    metrics.write_summary_tables(out_dir, summaries)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_population(args, seed: int):
    if args.population:
        pop = population.load_population(args.population)
        held = int((pop.persons.covid_state != 0).sum())
        if held:  # build_baseline starts every person at code 0
            print(f"warning: persons.csv: covid_state is not 'none' for {held} person(s); the "
                  "engine ignores it and starts every person at 'none'", file=sys.stderr)
        return pop
    if args.synth_config:
        cfg = population.parse_synth_config(args.synth_config)
    else:
        cfg = population.SynthConfig()
    return population.generate_synthetic(cfg, seed)


def load_inputs(args):
    """Load and check run's and validate's inputs: the scenario, the controls
    (warning of their gaps), the data, the policy, the schedule faults and,
    only when all of those are valid, the population. Prints each problem as
    `<input>: <problem>`; returns (plan, series, tables, schedules, seed,
    pop), None for each input not loaded, and the problems."""
    problems = []

    def check(label, fn, *fn_args):
        try:
            return fn(*fn_args)
        except PopulationError as exc:
            problems.extend(f"{label}: {v}" for v in exc.violations)
        except ValueError as exc:
            problems.append(f"{label}: {exc}")

    plan = check("scenario", scenario.parse_scenario, args.scenario)
    series = seed = pop = None
    if plan is not None:
        series = check("controls", scenario.load_control_totals, plan.controls_path)
        if series is not None:
            for gap in scenario.control_gaps(plan, series):
                print(f"warning: {gap}", file=sys.stderr)
        seed = args.seed if args.seed is not None else plan.seed
    tables = check("data", scenario.load_data_tables, args.data_dir)
    schedules = check("policy", taxben.load_policy, args.policy_dir)
    if plan is not None and schedules is not None:
        problems.extend(f"scenario: {fault}" for fault in scenario.schedule_faults(
            plan, schedules, os.path.basename(args.scenario)))
    if not problems:
        pop = check("population" if args.population else "synth-config",
                    _load_population, args, seed)
    for problem in problems:
        print(problem, file=sys.stderr)
    return (plan, series, tables, schedules, seed, pop), problems


def cmd_run(args) -> int:
    inputs, problems = load_inputs(args)
    if problems:
        return EXIT_VALIDATION
    plan, series, tables, schedules, seed, pop = inputs
    _, _, summaries = scenario.run_scenario(pop, plan, series, tables, schedules, seed,
                                            threads=args.threads)
    import numpy

    manifest = {
        "tool_version": __version__,
        # synthetic generation rides on numpy's Generator, whose streams
        # are only guaranteed stable within a numpy version
        "numpy_version": numpy.__version__,
        "seed": seed,
        "waves": [w.label for w in plan.waves],
        "inputs": {
            "scenario": _sha256(args.scenario),
            "controls": _sha256(plan.controls_path),
            "data_dir": _dir_digest(args.data_dir),
            "policy_dir": _dir_digest(args.policy_dir),
            "population": _dir_digest(args.population) if args.population else None,
            "synth_config": _sha256(args.synth_config) if args.synth_config else None,
        },
    }
    write_outputs(args.out, summaries, manifest)
    print(f"wrote {len(summaries)} wave summaries to {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    if load_inputs(args)[1]:
        return EXIT_VALIDATION
    print("all inputs valid")
    return EXIT_OK


def _iso_date(text) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"must be an ISO date, got {text!r} ({exc})") from None


def cmd_schedules(args) -> int:
    schedules = taxben.load_policy(args.policy_dir)
    amount_cents = cents(args.earnings or 0.0)
    if args.instrument == "ceib" and args.earnings is None:
        value = taxben.ceib_rate_cents(schedules, args.date)
    elif args.instrument in ("pup", "ceib"):  # CEIB pays the PUP bands on known earnings
        value = taxben.pup_rate_cents(schedules, amount_cents, args.date)
    elif args.instrument == "twss":
        value = taxben.twss_subsidy_cents(schedules, amount_cents, args.date)
    else:
        value = taxben.ewss_subsidy_cents(schedules, amount_cents, args.date)
    print(f"{euros(value):.2f}")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = population.parse_synth_config(args.config) if args.config \
        else population.SynthConfig()
    pop = population.generate_synthetic(cfg, args.seed)
    population.save_population(pop, args.out)
    print(f"wrote {len(pop.households)} households / {len(pop.persons)} persons "
          f"to {args.out}")
    return EXIT_OK


def print_config(args) -> int:
    defaults = {
        "data_dir": DEFAULT_DATA_DIR,
        "policy_dir": DEFAULT_POLICY_DIR,
        "seed": {"run": "the scenario file's seed", "synth": 0},
        "threads": 1,
        "synth": population.SynthConfig().__dict__ | {
            "sector_shares": "per the national reference employment mix",
            "essential_shares": "per-sector defaults, see README",
        },
    }
    print(json.dumps(defaults, indent=2, sort_keys=True, default=str))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (validation), not argparse's 2, which here
    means infeasible calibration."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nowcastsim",
        description="Distributional nowcasting of a labour-market shock and "
                    "its income-support response.",
    )
    parser.add_argument("--print-config", action="store_true",
                        help="print resolved defaults and exit")
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--scenario", required=True)
        source = p.add_mutually_exclusive_group()
        source.add_argument("--population", default=None,
                            help="directory with households.csv / persons.csv")
        source.add_argument("--synth-config", default=None,
                            help="synth.cfg for a generated population")
        p.add_argument("--data-dir", default=DEFAULT_DATA_DIR)
        p.add_argument("--policy-dir", default=DEFAULT_POLICY_DIR)
        p.add_argument("--seed", type=int, default=None)

    run_p = sub.add_parser("run", help="run a scenario and write summaries")
    add_common(run_p)
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--threads", type=int, default=1)
    run_p.set_defaults(fn=cmd_run)

    val_p = sub.add_parser("validate", help="validate all inputs without simulating")
    add_common(val_p)
    val_p.set_defaults(fn=cmd_validate)

    sched_p = sub.add_parser("schedules", help="look up an instrument's rate")
    sched_p.add_argument("instrument", choices=["pup", "ceib", "twss", "ewss"])
    sched_p.add_argument("--earnings", type=finite, default=None,
                         help="weekly earnings EUR, >= 0 (previous, take-home, or "
                              "gross depending on the instrument); for ceib, gives "
                              "the earnings-banded rate instead of the top one")
    sched_p.add_argument("--date", type=_iso_date, required=True)
    sched_p.add_argument("--policy-dir", default=DEFAULT_POLICY_DIR)
    sched_p.set_defaults(fn=cmd_schedules)

    synth_p = sub.add_parser("synth", help="generate a synthetic population")
    synth_p.add_argument("--config", default=None)
    synth_p.add_argument("--seed", type=int, default=0)
    synth_p.add_argument("--out", required=True)
    synth_p.set_defaults(fn=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")
    if getattr(args, "earnings", None) is not None and args.earnings < 0:
        parser.error(f"argument --earnings: must be >= 0, got {args.earnings:g}")
    if args.print_config:
        return print_config(args)
    if not getattr(args, "fn", None):
        parser.print_help()
        return EXIT_VALIDATION
    try:
        return args.fn(args)
    except AlignmentError as exc:
        print(f"infeasible calibration: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PopulationError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
