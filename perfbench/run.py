"""nowcastsim benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. All inputs are written from the seed and
checked with ``nowcastsim validate`` before timing starts. Then, with
``--trace 0``, one ``nowcastsim run`` process at a time is spawned, each
in a fresh child, until S seconds have passed; the end-to-end metrics are
medians over those runs. With ``--trace 1``, untraced runs at the traced
settings give a reference time, then at least two traced runs give the
per-layer metrics (medians of times, counts that must repeat exactly).

Every run's outputs are checked; a run that exits non-zero or fails a
check counts as failed. A human-readable report goes to stdout, and the
last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracer  # noqa: E402

DATA_DIR = os.path.join(ROOT, "src", "nowcastsim", "data")
SCENARIO = os.path.join(DATA_DIR, "scenario.cfg")
WORK = os.path.join(ROOT, ".perfbench-work")
MIN_RUNS = 3
MIN_TRACED_RUNS = 2

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "synth-25k": {"kind": "synth", "households": 25000, "threads": 1},
    "survey-csv-25k": {"kind": "survey", "households": 25000, "threads": 1},
    "policy-sweep": {"kind": "sweep", "households": 8000, "threads": 2},
}
END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("simulate_s", "s"),
              ("person_waves_per_s", "1/s"), ("peak_rss_mb", "MB")]
TABLES = ("average_income.csv", "gini.csv", "redistribution.csv", "decile_means.csv")
# each of the five printed Gini figures is rounded to 6 places
TELESCOPE_TOL = 5 * 0.5e-6 + 1e-12


def prepare(name: str, seed: int, work: str) -> dict:
    """Write the workload's inputs; return its nowcastsim run arguments."""
    spec = WORKLOADS[name]
    inp = os.path.join(work, "inputs")
    if spec["kind"] == "survey":
        written = inputs.write_survey_inputs(inp, DATA_DIR, spec["households"], seed)
        scenario, source = written["scenario"], ["--population", written["population"]]
    else:
        source = ["--synth-config", inputs.write_synth_config(inp, spec["households"])]
        scenario = SCENARIO if spec["kind"] == "synth" else \
            inputs.write_sweep_scenario(inp, DATA_DIR)
    return {"args": ["--scenario", scenario, *source, "--seed", str(seed)],
            "labels": inputs.wave_labels(scenario), "threads": spec["threads"]}


def launch(work: str, cli_argv: list, trace_path=None) -> dict:
    """Spawn one launcher child; wait for it with its own rusage."""
    record = os.path.join(work, "record.json")
    if os.path.exists(record):
        os.remove(record)
    cmd = [sys.executable, os.path.join(HERE, "launch.py"), "--record", record]
    if trace_path:
        cmd += ["--trace", trace_path]
    log_path = os.path.join(work, "child.log")
    with open(log_path, "wb") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd + ["--"] + cli_argv, stdout=log, stderr=log, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        done = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {}
    if os.path.exists(record):
        with open(record, encoding="utf-8") as fh:
            rec = json.load(fh)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        log_tail = fh.read()[-2000:]
    return {"rc": proc.returncode, "spawn": spawn, "done": done, "record": rec,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "log": log_tail}


def output_digest(out_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def _rows(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def check_outputs(out_dir: str, labels: list) -> list:
    """Problems with one run's output directory; empty when it is sound."""
    expected = set(TABLES) | {f"summary_{w}.csv" for w in labels} | {"manifest.json"}
    got = set(os.listdir(out_dir))
    if got != expected:
        return [f"output files differ: missing {sorted(expected - got)}, "
                f"extra {sorted(got - expected)}"]
    problems = []
    gini = {row[0]: [float(x) for x in row[1:]] for row in _rows(
        os.path.join(out_dir, "gini.csv")) if not row[0].startswith("change:")}
    if set(gini) != set(labels):
        problems.append("gini.csv does not list every wave")
    for wave, values in gini.items():
        if not all(0.0 <= g <= 1.0 for g in values):
            problems.append(f"gini outside [0, 1] in wave {wave}: {values}")
    for row in _rows(os.path.join(out_dir, "redistribution.csv")):
        wave, parts = row[0], [float(x) for x in row[1:]]
        if wave not in gini:
            problems.append(f"redistribution.csv has unknown wave {wave}")
            continue
        total = gini[wave][3] - gini[wave][0]  # adjusted - market
        if abs(sum(parts) - total) > TELESCOPE_TOL:
            problems.append(f"redistribution row {wave} sums to {sum(parts):.6f}, "
                            f"not G_adjusted - G_market = {total:.6f}")
    return problems


def run_once(prep: dict, work: str, threads: int, traced: bool) -> dict:
    out_dir = os.path.join(work, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    trace_path = os.path.join(work, "trace.npz") if traced else None
    argv = ["run", *prep["args"], "--threads", str(threads), "--out", out_dir]
    res = launch(work, argv, trace_path)
    rec = res["record"]
    res.update(traced=traced, threads=threads, digest=None, problems=[])
    if res["rc"] != 0 or "run_scenario_exit" not in rec:
        res["problems"].append(f"exit code {res['rc']}: {res['log'][-600:]}")
        return res
    try:
        res["problems"] += check_outputs(out_dir, prep["labels"])
    except (ValueError, IndexError) as exc:
        res["problems"].append(f"unreadable output table: {exc}")
    res["digest"] = output_digest(out_dir)
    simulate = rec["run_scenario_exit"] - rec["run_scenario_enter"]
    res["metrics"] = {
        "run_s": res["done"] - res["spawn"],
        "setup_s": rec["run_scenario_enter"] - res["spawn"],
        "simulate_s": simulate,
        "person_waves_per_s": rec["persons"] * rec["waves"] / simulate,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if traced:
        trace = tracer.load(trace_path)
        res["problems"] += trace["meta"]["identity_problems"]
        res["trace"] = trace
    return res


def closed_loop(prep, work, threads, traced, seconds, min_runs, start) -> list:
    runs = []
    while len(runs) < min_runs or time.monotonic() - start < seconds:
        runs.append(run_once(prep, work, threads, traced))
    return runs


def _median(runs, metric) -> float:
    values = [r["metrics"][metric] for r in runs if "metrics" in r]
    return statistics.median(values) if values else 0.0


def mark_digest_mismatches(runs: list) -> None:
    digests = [r["digest"] for r in runs if r["digest"]]
    if not digests:
        return
    reference = max(set(digests), key=digests.count)
    for r in runs:
        if r["digest"] and r["digest"] != reference:
            r["problems"].append(f"output digest {r['digest'][:12]} differs from "
                                 f"the other runs' {reference[:12]}")


def trace_metrics(untraced: list, traced: list) -> dict:
    """Per-layer metrics: medians over traced runs; counts must repeat."""
    good = [r for r in traced if "trace" in r]
    if not good:
        return {name: (0.0, unit) for name, unit in per_layer_names()}
    untraced_run_s = _median(untraced, "run_s")
    per_run = [tracer.layer_metrics(r["trace"], untraced_run_s, r["metrics"]["run_s"])
               for r in good]
    counts = {m: per_run[0][m][0] for m in tracer.COUNT_METRICS}
    for r, metrics in zip(good[1:], per_run[1:]):
        moved = [m for m in counts if metrics[m][0] != counts[m]]
        if moved:
            r["problems"].append(f"counts differ between traced runs: {moved}")
    return {name: (statistics.median(m[name][0] for m in per_run), unit)
            for name, unit in per_layer_names()}


def per_layer_names() -> list:
    return [(m, u) for m, u, _, _ in tracer.LAYER_METRICS] + tracer.DERIVED_METRICS


def seed_commit_digest(workload: str, seed: int):
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(workload, {}).get(str(seed))


def report(args, runs, metrics, absent) -> None:
    failed = [r for r in runs if r["problems"]]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(runs)} runs, {len(failed)} failed, "
          f"error_rate {len(failed) / len(runs):.3f} ({len(failed)}/{len(runs)})")
    sampled = [r for r in runs if "metrics" in r and not r["traced"]]
    for name, (value, unit) in metrics.items():
        line = f"  {name:44s} {value:14.6f} {unit}"
        values = [r["metrics"][name] for r in sampled] if name in dict(END_TO_END) else []
        if values:
            line += f"  median of n={len(values)}, min {min(values):.4f}, max {max(values):.4f}"
        print(line)
    for r in failed:
        print(f"  FAILED run (traced={r['traced']}, threads={r['threads']}): "
              f"{'; '.join(r['problems'])[:800]}")
    if absent:
        print(f"  absent functions (their metrics read 0): {', '.join(absent)}")
    stored = seed_commit_digest(args.workload, args.seed)
    for d in sorted({r["digest"] for r in runs if r["digest"]}):
        if stored is None:
            note = "no seed-commit digest stored for this seed"
        elif d == stored:
            note = "matches the seed commit"
        else:
            note = "WARNING: differs from the seed commit's output"
            print(f"warning: {args.workload} seed {args.seed}: output digest differs "
                  f"from the seed commit", file=sys.stderr)
        print(f"  output digest {d} ({note})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nowcastsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nowcastsim", "cli.py")):
        print(f"perfbench: no nowcastsim sources under {ROOT}/src", file=sys.stderr)
        return 2

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    prep = prepare(args.workload, args.seed, work)
    check = launch(work, ["validate", *prep["args"]])
    if check["rc"] != 0:
        print(f"perfbench: inputs fail nowcastsim validate:\n{check['log']}", file=sys.stderr)
        return 1

    start = time.monotonic()
    absent = []
    if args.trace:
        untraced = closed_loop(prep, work, 1, False, args.seconds / 2, 1, start)
        runs = list(untraced)
        if prep["threads"] != 1:  # outputs must not depend on the thread count
            runs.append(run_once(prep, work, prep["threads"], False))
        traced = closed_loop(prep, work, 1, True, args.seconds, MIN_TRACED_RUNS, start)
        runs += traced
        metrics = trace_metrics(untraced, traced)
        absent = next((r["trace"]["meta"]["absent"] for r in traced if "trace" in r), [])
    else:
        runs = closed_loop(prep, work, prep["threads"], False, args.seconds, MIN_RUNS, start)
        metrics = {name: (_median(runs, name), unit) for name, unit in END_TO_END}
    mark_digest_mismatches(runs)
    failed = sum(1 for r in runs if r["problems"])

    report(args, runs, metrics, absent)
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                           ".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "digests": sorted({r["digest"] for r in runs if r["digest"]}),
                   "runs": [{k: r.get(k) for k in ("traced", "threads", "rc", "metrics",
                                                   "problems", "digest")} for r in runs],
                   "metrics": metrics}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
