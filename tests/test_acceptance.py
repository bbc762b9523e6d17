"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Criteria mix bit-exact schedule reproduction, cross-checks against
published aggregate tables, and property suites on the engine's own
primitives; distribution-level magnitudes are checked for direction only,
since level reproduction requires the confidential source microdata.
"""
import datetime as dt
import os
import time
from pathlib import Path

import numpy as np
import pytest

from nowcastsim import expenses, metrics, population, scenario, taxben
from nowcastsim.calibration import IpfError, align_binary, ipf
from nowcastsim.cli import main as cli_main
from nowcastsim.igm import anchored_draws
from nowcastsim.rng import keyed_uniform

D = dt.date


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def pipeline_10k(tables, schedules, default_scenario, wave_spy):
    pop = population.generate_synthetic(population.SynthConfig(households=10_000), 42)
    series = scenario.load_control_totals(default_scenario.controls_path)
    start = time.perf_counter()
    base, results, summaries = wave_spy(
        pop, default_scenario, series, tables, schedules, seed=42, threads=1)
    elapsed = time.perf_counter() - start
    return pop, base, results, summaries, elapsed


# -- criterion 1: schedule golden suite ---------------------------------------

PUP_GOLDEN = [
    (0.00, D(2020, 3, 13), 20300),
    (500.00, D(2020, 3, 15), 20300),
    (100.00, D(2020, 3, 24), 35000),
    (150.00, D(2020, 5, 5), 35000),
    (800.00, D(2020, 6, 6), 35000),
    (150.00, D(2020, 6, 29), 20300),
    (250.00, D(2020, 6, 29), 25000),
    (350.00, D(2020, 6, 29), 30000),
    (500.00, D(2020, 6, 29), 30000),
    (199.99, D(2020, 8, 28), 20300),
    (150.00, D(2020, 9, 17), 20300),
    (200.00, D(2020, 9, 17), 35000),
    (1000.00, D(2020, 10, 1), 35000),
    (150.00, D(2020, 10, 16), 20300),
    (250.00, D(2020, 10, 16), 25000),
    (350.00, D(2020, 10, 16), 30000),
    (400.00, D(2020, 10, 16), 35000),
    (450.00, D(2020, 11, 15), 35000),
    (150.00, D(2021, 2, 15), 20300),
    (300.00, D(2021, 2, 15), 25000),
    (500.00, D(2021, 2, 15), 25000),
]

TWSS_GOLDEN = [
    (500.00, D(2020, 3, 20), 20300),
    (500.00, D(2020, 4, 1), 35000),
    (585.99, D(2020, 4, 1), 41000),
    (600.00, D(2020, 4, 1), 35000),
    (1000.00, D(2020, 4, 1), 0),
    (400.00, D(2020, 5, 1), 34000),
    (411.99, D(2020, 5, 1), 35019),
    (450.00, D(2020, 5, 1), 35000),
    (550.00, D(2020, 5, 1), 38500),
    (700.00, D(2020, 5, 1), 35000),
    (960.00, D(2020, 5, 1), 35000),
    (1211.00, D(2020, 7, 15), 17500),
    (1462.00, D(2020, 5, 1), 0),
]

EWSS_GOLDEN = [
    (100.00, D(2020, 8, 1), 0),
    (151.50, D(2020, 8, 1), 15150),
    (202.99, D(2020, 8, 1), 15150),
    (203.00, D(2020, 8, 1), 20300),
    (1462.00, D(2020, 8, 1), 20300),
    (1462.01, D(2020, 8, 1), 0),
    (100.00, D(2020, 11, 1), 0),
    (151.50, D(2020, 11, 1), 20300),
    (202.99, D(2020, 11, 1), 20300),
    (203.00, D(2020, 11, 1), 25000),
    (299.99, D(2020, 11, 1), 25000),
    (300.00, D(2020, 11, 1), 30000),
    (399.99, D(2020, 11, 1), 30000),
    (400.00, D(2020, 11, 1), 35000),
    (1462.00, D(2020, 11, 1), 35000),
    (2000.00, D(2020, 11, 1), 0),
]

CEIB_GOLDEN = [
    (D(2020, 3, 15), 20300),
    (D(2020, 5, 5), 35000),
    (D(2020, 11, 15), 35000),
]


def test_criterion_1_schedule_golden_suite(schedules):
    from nowcastsim.money import cents
    for earnings, date, expected in PUP_GOLDEN:
        got = taxben.pup_rate_cents(schedules, cents(earnings), date)
        assert got == expected, f"pup({earnings}, {date}) = {got}, want {expected}"
    for pay, date, expected in TWSS_GOLDEN:
        got = taxben.twss_subsidy_cents(schedules, cents(pay), date)
        assert got == expected, f"twss({pay}, {date}) = {got}, want {expected}"
    for pay, date, expected in EWSS_GOLDEN:
        got = taxben.ewss_subsidy_cents(schedules, cents(pay), date)
        assert got == expected, f"ewss({pay}, {date}) = {got}, want {expected}"
    for date, expected in CEIB_GOLDEN:
        assert taxben.ceib_rate_cents(schedules, date) == expected
    n = len(PUP_GOLDEN) + len(TWSS_GOLDEN) + len(EWSS_GOLDEN) + len(CEIB_GOLDEN)
    report(1, f"{n} schedule rates bit-exact in cents")


# -- criterion 2: redistribution decomposition cross-check ---------------------

GINI_ROWS = {
    # label: (market, gross, disposable, adjusted)
    "before": (0.490, 0.363, 0.290, 0.308),
    "2020-05-05": (0.609, 0.349, 0.276, 0.290),
    "2020-06-06": (0.594, 0.354, 0.279, 0.294),
    "2020-08-28": (0.548, 0.361, 0.291, 0.304),
    "2020-11-15": (0.572, 0.356, 0.282, 0.296),
    "2020-12-22": (0.582, 0.362, 0.287, 0.301),
    "2021-01-26": (0.578, 0.361, 0.287, 0.301),
}
REDISTRIBUTION_ROWS = {
    "before": (-0.127, -0.073, 0.018),
    "2020-05-05": (-0.260, -0.073, 0.014),
    "2020-06-06": (-0.240, -0.075, 0.016),
    "2020-08-28": (-0.187, -0.070, 0.014),
    "2020-11-15": (-0.216, -0.074, 0.014),
    "2020-12-22": (-0.220, -0.075, 0.014),
    "2021-01-26": (-0.217, -0.074, 0.014),
}


def test_criterion_2_decomposition_cross_check():
    checked = 0
    for label, ginis in GINI_ROWS.items():
        got = metrics.redistribution_decomposition(*ginis)
        want = REDISTRIBUTION_ROWS[label]
        for g, w in zip(got, want):
            assert abs(g - w) <= 0.001 + 1e-12, (label, got, want)
            checked += 1
    report(2, f"all {checked} redistribution cells within +/-0.001")


# -- criterion 3: capital-loss oracle ------------------------------------------

HOLDING_CHANGE_REFERENCE = {
    # (age band, quintile): published change in EUR thousand
    ("30", 1): 0.000, ("30", 2): -0.004, ("30", 3): -0.003, ("30", 4): -0.006,
    ("30", 5): -0.011,
    ("40", 1): -0.002, ("40", 2): -0.036, ("40", 3): -0.032, ("40", 4): -0.063,
    ("40", 5): -0.117,
    ("50", 1): -0.003, ("50", 2): -0.047, ("50", 3): -0.041, ("50", 4): -0.082,
    ("50", 5): -0.151,
    ("60", 1): -0.012, ("60", 2): -0.194, ("60", 3): -0.168, ("60", 4): -0.336,
    ("60", 5): -0.623,
    ("70", 1): -0.058, ("70", 2): -0.902, ("70", 3): -0.783, ("70", 4): -1.563,
    ("70", 5): -2.901,
}


def test_criterion_3_capital_loss_oracle(tables):
    start = time.perf_counter()
    holdings = tables.holdings
    cells = sorted(HOLDING_CHANGE_REFERENCE)
    index = {c: (expenses.AGE_BANDS.index(c[0]), c[1] - 1) for c in cells}
    values = np.array([holdings.value_cents[index[c]] / 100000.0 for c in cells])
    reference = np.array([HOLDING_CHANGE_REFERENCE[c] for c in cells])

    # stage 1: the change table divided by the holdings table is one constant
    factor_hat = float((reference * values).sum() / (values * values).sum())
    assert abs(factor_hat - (-0.3532)) < 5e-4, factor_hat
    deviations = np.abs(reference - factor_hat * values)
    # both source tables are printed to 3 decimals: combined rounding 0.0007
    assert deviations.max() <= 7e-4, deviations.max()

    # stage 2: simulated expected losses reproduce the change table
    from nowcastsim.expenses import capital_value_change_cents
    draws = 100_000
    factor = -0.3532
    for cell in cells:
        band, quintile = cell
        rate = holdings.participation[index[cell]]
        u = keyed_uniform(1234, f"capital-oracle:{band}:{quintile}", np.arange(draws))
        participant = u < rate
        change = capital_value_change_cents(
            holdings, np.full(draws, index[cell][0]),
            np.full(draws, quintile), participant, factor)
        assert participant.sum() > 0
        mean_among_participants = change[participant].mean() / 100000.0
        assert abs(mean_among_participants - HOLDING_CHANGE_REFERENCE[cell]) <= 0.002, \
            (cell, mean_among_participants)
        realized_rate = participant.mean()
        sigma = (rate * (1 - rate) / draws) ** 0.5
        assert abs(realized_rate - rate) < 5 * sigma + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"factor {factor_hat:.4f} constant across 25 cells; per-cell "
              f"expected losses within +/-0.002 at 1e5 draws ({elapsed:.1f}s)")


# -- criterion 4: ipf properties ------------------------------------------------

def test_criterion_4_ipf_properties():
    rng = np.random.default_rng(1001)
    for _ in range(50):
        seed = rng.uniform(0.05, 3.0, (5, 5))
        rt = rng.uniform(0.5, 6.0, 5)
        ct = rng.uniform(0.5, 6.0, 5)
        ct *= rt.sum() / ct.sum()
        fitted = ipf(seed, rt, ct, tol=1e-8)
        assert np.abs(fitted.sum(axis=1) - rt).max() < 1e-8
        assert np.abs(fitted.sum(axis=0) - ct).max() < 1e-8

    hand = ipf(np.ones((2, 2)), [1.0, 3.0], [2.0, 2.0])
    assert np.allclose(hand, [[0.5, 0.5], [1.5, 1.5]], atol=1e-12)

    seeded = np.array([[0.7, 0.0], [0.4, 0.9]])
    fitted = ipf(seeded, [1.0, 2.0], [1.5, 1.5])
    assert fitted[0, 1] == 0.0

    with pytest.raises(IpfError):
        ipf(np.ones((2, 2)), [1.0, 1.0], [3.0, 3.0])
    report(4, "marginals within 1e-8 on 50 random 5x5 instances; hand case, "
              "zero preservation and infeasibility checks hold")


# -- criterion 5: alignment properties -------------------------------------------

def test_criterion_5_alignment_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    for trial in range(1000):
        n = int(rng.integers(3, 60))
        ids = np.arange(n)
        probs = rng.uniform(0.02, 0.98, n)
        weights = np.ones(n) if trial % 2 == 0 else rng.uniform(0.25, 3.0, n)
        target = float(rng.uniform(0.0, weights.sum()))
        chosen = align_binary(ids, probs, weights, target, trial, "acc")
        realized = weights[np.isin(ids, chosen)].sum()
        assert abs(realized - target) <= weights.max() + 1e-9

    # order independence and seed determinism
    n = 500
    ids = np.arange(n)
    probs = rng.uniform(0.05, 0.95, n)
    weights = rng.uniform(0.5, 2.0, n)
    first = align_binary(ids, probs, weights, 200.0, 9, "det")
    perm = rng.permutation(n)
    second = align_binary(ids[perm], probs[perm], weights[perm], 200.0, 9, "det")
    third = align_binary(ids, probs, weights, 200.0, 9, "det")
    assert np.array_equal(first, second) and np.array_equal(first, third)

    # anchored replay over 10^4 persons
    n = 10_000
    probs = rng.uniform(0.05, 0.95, n)
    observed = rng.uniform(size=n) < probs
    u = anchored_draws(probs, observed, 77, "acc-replay", np.arange(n))
    replayed = u < probs
    assert np.array_equal(replayed, observed)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(5, f"1000 random alignments within one unit-weight; order/seed "
              f"determinism; anchored replay 100% ({elapsed:.1f}s)")


# -- criterion 6: gini oracle ------------------------------------------------------

def double_sum_gini(values, weights):
    x = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum()
    mu = (w * x).sum() / total
    return float((w[:, None] * w[None, :] * np.abs(x[:, None] - x[None, :])).sum()
                 / (2.0 * total * total * mu))


def test_criterion_6_gini_oracle_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(3003)
    for _ in range(200):
        n = int(rng.integers(2, 201))
        x = rng.lognormal(rng.uniform(0, 2), rng.uniform(0.2, 1.2), n)
        w = rng.uniform(0.1, 4.0, n)
        assert metrics.weighted_gini(x, w) == pytest.approx(
            double_sum_gini(x, w), abs=1e-12)

    x = rng.lognormal(1.0, 0.9, 150)
    w = rng.uniform(0.5, 2.0, 150)
    g = metrics.weighted_gini(x, w)
    assert metrics.weighted_gini(7.3 * x, w) == pytest.approx(g, abs=1e-12)
    assert metrics.weighted_gini(np.tile(x, 3), np.tile(w, 3)) == pytest.approx(
        g, abs=1e-12)
    assert metrics.weighted_gini([1.0, 3.0], [1.0, 1.0]) == pytest.approx(
        0.25, abs=1e-15)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(6, f"sorted-form gini equals the double sum within 1e-12 on 200 "
              f"instances; invariances hold ({elapsed:.1f}s)")


# -- criterion 7: identity suite -----------------------------------------------------

def test_criterion_7_identity_suite(pipeline_10k, tables, schedules,
                                    default_scenario):
    pop, base, results, summaries, elapsed = pipeline_10k
    assert len(results) == 7
    for r in results:
        lhs = r.adjusted
        rhs = r.disposable - r.housing - r.capital_adjustment - r.work_expenses
        assert np.array_equal(lhs, rhs), f"identity broken in wave {r.label}"
        assert np.array_equal(r.gross, r.market + r.benefits)
        assert np.array_equal(r.disposable, r.gross - r.taxes)

    # null-shock wave is a fixed point of the baseline
    null = scenario.apply_wave(
        base, scenario.ControlTotals(date=D(2020, 5, 5)),
        scenario.WavePoint(label="null", date=D(2020, 5, 5)),
        tables, schedules, seed=42)
    before = results[0]
    for name in ("market", "gross", "disposable", "adjusted"):
        assert np.array_equal(getattr(null, name), getattr(before, name))

    # instrument switch-off identity under the wave-1 shock
    series = scenario.load_control_totals(default_scenario.controls_path)
    wave1 = default_scenario.waves[1]
    off = scenario.apply_wave(
        base, series.at(wave1.date),
        scenario.WavePoint(label="off", date=wave1.date), tables, schedules, seed=42)
    assert np.all(off.covid_code == 0)
    assert np.array_equal(off.disposable, off.market - off.taxes + off.benefits)
    assert elapsed < 60.0
    report(7, f"adjusted == disposable - H - Q - C exactly for 10k households "
              f"x 7 waves; null wave is a fixed point; switch-off identity "
              f"holds (pipeline {elapsed:.1f}s)")


# -- criterion 8: directional reproduction --------------------------------------------

def test_criterion_8_directional_pattern(pipeline_10k, tables, schedules,
                                         default_scenario):
    _, base, results, summaries, _ = pipeline_10k
    before, wave1 = summaries[0], summaries[1]
    d_gini_market = wave1.gini["market"] - before.gini["market"]
    assert d_gini_market > 0

    series = scenario.load_control_totals(default_scenario.controls_path)
    w1 = default_scenario.waves[1]
    off_wave = scenario.WavePoint(label="off", date=w1.date, pup_on=False,
                                  ceib_on=False, subsidy="none",
                                  childcare_support=w1.childcare_support,
                                  deferrals_on=w1.deferrals_on,
                                  capital_on=w1.capital_on,
                                  home_working_on=w1.home_working_on)
    off = scenario.apply_wave(base, series.at(w1.date), off_wave, tables,
                              schedules, seed=42)
    equiv_off = off.disposable / 100.0 / base.equiv_scale
    gini_disp_off = metrics.weighted_gini(equiv_off[base.hh_row], base.hh_weight[base.hh_row])
    d_on = wave1.gini["disposable"] - before.gini["disposable"]
    d_off = gini_disp_off - before.gini["disposable"]
    assert d_on < d_off

    market_fall = 1.0 - wave1.means["market"] / before.means["market"]
    adjusted_fall = 1.0 - wave1.means["adjusted"] / before.means["adjusted"]
    assert market_fall > 0
    assert 0 <= adjusted_fall < market_fall
    report(8, f"dGini(market) = +{d_gini_market:.3f} > 0; dGini(disposable) "
              f"on {d_on:+.3f} < off {d_off:+.3f}; market fell "
              f"{market_fall:.1%}, adjusted only {adjusted_fall:.1%}")


# -- criterion 9: determinism ------------------------------------------------------------

def read_dir_bytes(path):
    return {child.name: child.read_bytes() for child in sorted(Path(path).iterdir())}


def test_criterion_9_byte_identical_runs(data_dir, tmp_path):
    synth = tmp_path / "synth.cfg"
    synth.write_text("households = 500\n")
    args = ["run", "--scenario", os.path.join(data_dir, "scenario.cfg"),
            "--synth-config", str(synth), "--seed", "99"]
    outputs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out), "--threads", str(threads)]) == 0
        outputs.append(read_dir_bytes(out))
    assert outputs[0] == outputs[1], "same-seed reruns differ"
    assert outputs[0] == outputs[2], "thread count changed the output"
    report(9, "byte-identical outputs across reruns and thread counts")
