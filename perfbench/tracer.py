"""Outside-in tracer for nowcastsim, and the per-layer metrics derived
from its spans.

``install`` wraps every public function of the nowcastsim layer modules in
every module namespace that binds it (``align_binary`` is bound in both
``calibration`` and ``scenario``, ``keyed_uniform`` in ``rng``,
``scenario``, ``expenses`` and ``igm``), so calls made through any import
are recorded. The program itself is not changed.

Each call is one span: name, start, end, parent span and a unit count,
kept in flat arrays and written out once, when the run ends. Self times
are derived afterwards from the spans: a span's duration minus the
durations of its child spans. The RSS high-water mark is recorded at the
end of every span down to ``RSS_DEPTH`` (main, the command, its stages and
the stages inside ``run_scenario``).

A function that a metric names but the code no longer has is reported as
absent and its metrics read 0, so deleting code does not break the
benchmark.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import time
from array import array

import numpy as np

LAYERS = ("cli", "population", "scenario", "calibration", "taxben", "expenses",
          "igm", "rng", "metrics", "money")
RSS_DEPTH = 3  # main (0) -> cmd_run (1) -> run_scenario (2) -> build_baseline (3)
SPLIT_BY_LABEL = {"calibration.align_binary": "label"}  # span name gets the label head
UNITS_PARAM = {"calibration.align_binary": "ids", "rng.keyed_uniform": "ids"}


def _count(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 1


def _position(fn, param):
    if param is None:
        return None
    return list(inspect.signature(fn).parameters).index(param)


class Tracer:
    """Spans kept in memory as flat arrays; one tracer per process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.units = array("q")
        self.rss_span = array("i")
        self.rss_mb = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span that the tracer did not time itself."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self._stack[-1])
        self.units.append(0)

    def wrap(self, fn, name: str, label_param=None, units_param=None):
        nid = self.name_id(name)
        lpos, upos = _position(fn, label_param), _position(fn, units_param)
        names, starts, ends, parents, units = (self.name, self.start, self.end,
                                               self.parent, self.units)
        stack, clock, name_id = self._stack, time.monotonic, self.name_id
        rss_span, rss_mb, getrusage = self.rss_span, self.rss_mb, resource.getrusage

        def arg(args, kwargs, pos, param):
            return args[pos] if len(args) > pos else kwargs[param]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            if lpos is None:
                names.append(nid)
            else:
                label = str(arg(args, kwargs, lpos, label_param))
                names.append(name_id(f"{name}.{label.split(':', 1)[0]}"))
            units.append(0 if upos is None else _count(arg(args, kwargs, upos, units_param)))
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                if len(stack) <= RSS_DEPTH + 1:
                    rss_span.append(i)
                    rss_mb.append(getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

        return traced

    def dump(self, path, meta: dict) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            units=np.frombuffer(self.units, dtype=np.int64),
            rss_span=np.frombuffer(self.rss_span, dtype=np.int32),
            rss_mb=np.frombuffer(self.rss_mb, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


def public_functions(modules) -> dict:
    """Function object -> span name ``<defining module>.<name>`` for every
    public function bound in the given modules."""
    found = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__.startswith("nowcastsim.")):
                found[obj] = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
    return found


def install(tracer: Tracer) -> list:
    """Wrap every public layer function wherever it is bound; return the
    function names some metric expects but the code no longer has."""
    modules = []
    for layer in LAYERS:
        try:
            modules.append(importlib.import_module(f"nowcastsim.{layer}"))
        except ImportError:
            continue
    found = public_functions(modules)
    wrappers = {fn: tracer.wrap(fn, name, SPLIT_BY_LABEL.get(name), UNITS_PARAM.get(name))
                for fn, name in found.items()}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    return sorted(expected_functions() - set(found.values()))


# -- per-layer metrics ---------------------------------------------------------

# (metric, unit, what, span names). `self` sums self time, `calls` counts
# spans, `units` sums the ids or rows passed in.
LAYER_METRICS = [
    ("cli.import_s", "s", "self", ["cli.import"]),
    ("cli.write_outputs_s", "s", "self", ["cli.write_outputs"]),
    ("population.generate_synthetic_s", "s", "self", ["population.generate_synthetic"]),
    ("population.load_population_s", "s", "self", ["population.load_population"]),
    ("population.validate_s", "s", "self", ["population.validate"]),
    ("population.validate_calls", "count", "calls", ["population.validate"]),
    ("scenario.load_control_totals_s", "s", "self", ["scenario.load_control_totals"]),
    ("scenario.nowcast_baseline_s", "s", "self", ["scenario.nowcast_baseline"]),
    ("scenario.build_baseline_s", "s", "self", ["scenario.build_baseline"]),
    ("scenario.apply_wave_s", "s", "self", ["scenario.apply_wave"]),
    ("scenario.apply_wave_calls", "count", "calls", ["scenario.apply_wave"]),
    ("scenario.run_scenario_s", "s", "self", ["scenario.run_scenario"]),
    *[(f"calibration.align_binary.{head}_{suffix}", unit, what,
       [f"calibration.align_binary.{head}"])
      for head in ("pup", "ceib", "subsidy", "deferral")
      for suffix, unit, what in (("s", "s", "self"), ("units", "count", "units"))],
    ("calibration.align_by_score_s", "s", "self", ["calibration.align_by_score"]),
    ("calibration.align_continuous_s", "s", "self", ["calibration.align_continuous"]),
    ("calibration.align_continuous_calls", "count", "calls", ["calibration.align_continuous"]),
    ("taxben.benefit_weekly_cents_s", "s", "self", ["taxben.benefit_weekly_cents"]),
    ("taxben.income_tax_cents_s", "s", "self", ["taxben.income_tax_cents"]),
    ("taxben.pup_rate_cents_calls", "count", "calls", ["taxben.pup_rate_cents"]),
    ("taxben.subsidy_cents_calls", "count", "calls",
     ["taxben.twss_subsidy_cents", "taxben.ewss_subsidy_cents"]),
    ("taxben.schedule_s", "s", "self",
     ["taxben.pup_rate_cents", "taxben.ceib_rate_cents", "taxben.twss_subsidy_cents",
      "taxben.ewss_subsidy_cents"]),
    ("expenses.assign_commute_modes_s", "s", "self", ["expenses.assign_commute_modes"]),
    ("expenses.childcare_costs_cents_s", "s", "self", ["expenses.childcare_costs_cents"]),
    ("expenses.capital_participants_s", "s", "self", ["expenses.capital_participants"]),
    ("expenses.commuting_cost_cents_s", "s", "self", ["expenses.commuting_cost_cents"]),
    ("expenses.commuting_cost_cents_calls", "count", "calls", ["expenses.commuting_cost_cents"]),
    ("expenses.capital_value_change_cents_s", "s", "self",
     ["expenses.capital_value_change_cents"]),
    ("expenses.housing_cost_cents_s", "s", "self", ["expenses.housing_cost_cents"]),
    ("igm.model_eval_s", "s", "self",
     ["igm.logit_prob", "igm.linear_predict", "igm.anchored_draws", "igm.draw_residual"]),
    ("rng.keyed_uniform_s", "s", "self", ["rng.keyed_uniform"]),
    ("rng.keyed_uniform_calls", "count", "calls", ["rng.keyed_uniform"]),
    ("rng.draws", "count", "units", ["rng.keyed_uniform"]),
    ("money.cents_calls", "count", "calls", ["money.cents"]),
    ("metrics.summarize_s", "s", "self", ["metrics.summarize"]),
    ("metrics.weighted_gini_s", "s", "self", ["metrics.weighted_gini"]),
    ("metrics.weighted_gini_calls", "count", "calls", ["metrics.weighted_gini"]),
    ("metrics.weighted_quantile_groups_s", "s", "self", ["metrics.weighted_quantile_groups"]),
    ("metrics.weighted_quantile_groups_calls", "count", "calls",
     ["metrics.weighted_quantile_groups"]),
    ("metrics.decile_means_s", "s", "self", ["metrics.decile_means"]),
    ("metrics.write_summary_tables_s", "s", "self", ["metrics.write_summary_tables"]),
]
# metrics computed from the run as a whole rather than summed over spans
DERIVED_METRICS = [
    ("cli.finish_s", "s"),                 # run_scenario's return to main's return
    ("mem.population_rss_mb", "MB"),       # RSS high-water mark, population ready
    ("mem.baseline_rss_mb", "MB"),         # RSS high-water mark after build_baseline
    ("taxben.subsidy_evals_per_subsidised", "ratio"),
    ("trace.overhead_s", "s"),             # traced run_s minus the untraced median
    ("trace.coverage", "ratio"),           # share of run_scenario inside child spans
]
COUNT_METRICS = [m for m, _, what, _ in LAYER_METRICS if what != "self"]


def expected_functions() -> set:
    """Engine function names the metrics read (launcher spans excluded)."""
    out = set()
    for _, _, _, spans in LAYER_METRICS:
        for span in spans:
            if span == "cli.import":
                continue
            base = span.rsplit(".", 1)[0]
            out.add(base if base in SPLIT_BY_LABEL else span)
    return out


def load(path) -> dict:
    with np.load(path, allow_pickle=False) as z:
        trace = {k: z[k] for k in z.files}
    trace["meta"] = json.loads(str(trace["meta"]))
    return trace


def span_totals(trace) -> dict:
    """Span name -> (calls, self seconds, units, total seconds)."""
    dur = trace["end"] - trace["start"]
    parent = trace["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    self_s = dur - covered
    k = len(trace["names"])
    name = trace["name"]
    calls = np.bincount(name, minlength=k)
    selfs = np.bincount(name, weights=self_s, minlength=k)
    units = np.bincount(name, weights=trace["units"], minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    return {str(n): (int(calls[i]), float(selfs[i]), int(units[i]), float(total[i]))
            for i, n in enumerate(trace["names"])}


def _rss_at(trace, span_name: str) -> float:
    names = list(trace["names"])
    if span_name not in names:
        return 0.0
    nid = names.index(span_name)
    hits = trace["name"][trace["rss_span"]] == nid
    return float(np.max(trace["rss_mb"][hits])) if np.any(hits) else 0.0


def layer_metrics(trace, untraced_run_s: float, traced_run_s: float) -> dict:
    """Every per-layer metric of one traced run, as {name: (value, unit)}."""
    totals = span_totals(trace)
    meta = trace["meta"]
    out = {}
    for metric, unit, what, spans in LAYER_METRICS:
        col = {"calls": 0, "self": 1, "units": 2}[what]
        out[metric] = (sum(totals.get(s, (0, 0.0, 0, 0.0))[col] for s in spans), unit)
    rs_calls, rs_self, _, rs_total = totals.get("scenario.run_scenario", (0, 0.0, 0, 0.0))
    subsidy_evals = out["taxben.subsidy_cents_calls"][0]
    subsidised = meta.get("subsidised_person_waves", 0)
    out.update({
        "cli.finish_s": (meta["main_return"] - meta["run_scenario_exit"], "s"),
        "mem.population_rss_mb": (max(_rss_at(trace, "population.generate_synthetic"),
                                      _rss_at(trace, "population.load_population")), "MB"),
        "mem.baseline_rss_mb": (_rss_at(trace, "scenario.build_baseline"), "MB"),
        "taxben.subsidy_evals_per_subsidised": (
            subsidy_evals / subsidised if subsidised else 0.0, "ratio"),
        "trace.overhead_s": (traced_run_s - untraced_run_s, "s"),
        "trace.coverage": (1.0 - rs_self / rs_total if rs_total else 0.0, "ratio"),
    })
    return out
