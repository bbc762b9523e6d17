"""Thin launcher for one nowcastsim process under the benchmark.

    python3 perfbench/launch.py --record FILE [--trace FILE] -- <nowcastsim argv>

Calls the real ``nowcastsim.cli.main(argv)`` from the checkout's ``src``
and exits with its return code. Untraced, it wraps only
``scenario.run_scenario``, with two clock reads, and writes those reads
to FILE as JSON when main returns. With ``--trace``, it also installs the
outside-in tracer, checks the income identities of every wave result
after main returns, and writes the spans to the trace file.

Times come from ``time.monotonic``, which is one clock for every process
on the machine, so the parent can subtract its spawn time from them.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WAGE_SUBSIDISED = 3  # covid_code of a wage-subsidised person in WaveResult


def _persons(pop) -> int:
    persons = getattr(pop, "persons", pop)
    return len(persons)


def identity_problems(results) -> list:
    """Exact per-household income identities of every WaveResult."""
    problems = []
    for r in results:
        for lhs, rhs, text in (
            (r.gross, r.market + r.benefits, "gross == market + benefits"),
            (r.disposable, r.gross - r.taxes, "disposable == gross - taxes"),
            (r.adjusted, r.disposable - r.housing - r.capital_adjustment - r.work_expenses,
             "adjusted == disposable - housing - capital_adjustment - work_expenses"),
        ):
            if not (lhs == rhs).all():
                problems.append(f"wave {r.label}: {text} fails")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.monotonic()
    import nowcastsim.cli
    from nowcastsim import scenario
    t1 = time.monotonic()

    tracer = absent = None
    if opts.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.record("cli.import", t0, t1)
        absent = tracing.install(tracer)

    record = {"import_s": t1 - t0}
    captured = []
    inner = scenario.run_scenario

    def run_scenario(pop, plan, *args, **kwargs):
        record["run_scenario_enter"] = time.monotonic()
        out = inner(pop, plan, *args, **kwargs)
        record["run_scenario_exit"] = time.monotonic()
        record["persons"] = _persons(pop)
        record["waves"] = len(plan.waves)
        if tracer is not None:
            captured.append(out[1])
        return out

    scenario.run_scenario = run_scenario
    rc = nowcastsim.cli.main(cli_argv)
    record["main_return"] = time.monotonic()
    record["rc"] = rc

    if tracer is not None:
        results = [r for rs in captured for r in rs]
        record["absent"] = absent
        record["identity_problems"] = identity_problems(results)
        record["subsidised_person_waves"] = int(sum(
            int((r.covid_code == WAGE_SUBSIDISED).sum()) for r in results))
        tracer.dump(opts.trace, record)
    with open(opts.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
