import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nowcastsim.metrics import (INCOME_DEFINITIONS, DistributionSummary, MetricsError,
                                decile_groups, decile_means, equivalence_scale,
                                redistribution_decomposition, summarize, weighted_gini,
                                weighted_quantile_groups, write_summary_tables)


def gini_double_sum(values, weights):
    """Definitional O(n^2) oracle: sum w_i w_j |x_i - x_j| / (2 W^2 mu)."""
    x = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum()
    mu = (w * x).sum() / total
    diff = np.abs(x[:, None] - x[None, :])
    return float((w[:, None] * w[None, :] * diff).sum() / (2.0 * total * total * mu))


class TestEquivalize:
    def test_single_adult_is_identity(self):
        assert 1000.0 / equivalence_scale(1, 0) == 1000.0

    def test_modified_oecd_family(self):
        # 2 adults + 2 children <14: scale 1 + 0.5 + 0.6 = 2.1
        assert 2100.0 / equivalence_scale(2, 2) == pytest.approx(1000.0)

    def test_linearity(self):
        assert 500.0 / equivalence_scale(2, 1) * 2 == 1000.0 / equivalence_scale(2, 1)

    def test_empty_household_rejected(self):
        with pytest.raises(MetricsError):
            equivalence_scale(0, 0)


class TestWeightedGini:
    def test_equal_values_zero(self):
        assert weighted_gini([5.0, 5.0, 5.0], [1, 2, 3]) == 0.0

    def test_two_point_case(self):
        assert weighted_gini([1.0, 3.0], [1.0, 1.0]) == pytest.approx(0.25, abs=1e-15)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            x = rng.lognormal(1.0, 1.0, n)
            w = rng.uniform(0.2, 3.0, n)
            assert weighted_gini(x, w) == pytest.approx(gini_double_sum(x, w), abs=1e-12)

    def test_replication_invariance(self):
        x = np.array([1.0, 2.0, 7.0])
        w = np.array([1.0, 1.0, 2.0])
        g1 = weighted_gini(x, w)
        g2 = weighted_gini(np.tile(x, 4), np.tile(w, 4))
        assert g2 == pytest.approx(g1, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(1, 10, 30)
        w = rng.uniform(0.5, 2, 30)
        assert weighted_gini(3.7 * x, w) == pytest.approx(weighted_gini(x, w), abs=1e-12)

    def test_zero_mean_with_dispersion_rejected(self):
        with pytest.raises(MetricsError):
            weighted_gini([-1.0, 1.0], [1.0, 1.0])

    def test_all_zero_convention(self):
        assert weighted_gini([0.0, 0.0], [1.0, 1.0]) == 0.0

    @pytest.mark.parametrize("values, weights, message", [
        ([], [], "gini of an empty vector"),
        ([1.0, 2.0], [1.0], "values and weights differ in length"),
        ([1.0, 2.0], [1.0, 0.0], "weights must be positive"),
        ([1.0, 2.0], [1.0, -1.0], "weights must be positive"),
    ])
    def test_argument_faults_are_named(self, values, weights, message):
        with pytest.raises(MetricsError, match=f"^{message}$"):
            weighted_gini(values, weights)


# household values with heavy ties, signed zeros and negatives
HOUSEHOLD_VALUE = (st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.25, 1e-300, -1e-300])
                   | st.floats(-1e6, 1e6, allow_nan=False))


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def summarize_households(hh: dict, hh_row, w, deciles=None) -> dict:
    """`summarize` of each household-level array in `hh`, whose persons
    (`hh_row`, weights `w`) are ranked into `deciles`; with none given, by
    their adjusted income, ties by row, as a run ranks its first wave."""
    if deciles is None:
        deciles = weighted_quantile_groups(np.argsort(hh["adjusted"][hh_row], kind="stable"),
                                           w, 10)
    hw = np.bincount(hh_row, weights=w, minlength=len(hh["adjusted"]))
    groups = decile_groups(hh_row, w, deciles)
    return {name: summarize(values, hw, groups) for name, values in hh.items()}


def person_decile_means(values, weights, deciles):
    """The per-person decile means that pairs replaced: one bincount over
    every person's value times weight."""
    w = np.asarray(weights, dtype=np.float64)
    weight_sums = np.bincount(deciles, weights=w, minlength=11)[1:]
    return np.divide(np.bincount(deciles, weights=np.asarray(values, dtype=np.float64) * w,
                                 minlength=11)[1:], weight_sums,
                     out=np.full(10, np.nan), where=weight_sums > 0)


def exact_decile_means(values, weights, deciles):
    """Each decile's weighted mean of per-person `values` in exact
    arithmetic, rounded once; NaN for a decile no person is in."""
    sums, totals = [Fraction(0)] * 11, [Fraction(0)] * 11
    for v, w, d in zip(values, weights, deciles):
        sums[d] += Fraction(v) * Fraction(w)
        totals[d] += Fraction(w)
    return np.array([float(s / t) if t else np.nan for s, t in zip(sums[1:], totals[1:])])


def person_groups(weights, deciles):
    """decile_groups with every person a household of their own."""
    return decile_groups(np.arange(len(deciles)), weights, np.asarray(deciles))


class TestSummarizeExact:
    def test_summarize_gini_matches_generic_path(self):
        """On small integers every float sum is exact, so the household
        Ginis, means and decile means are bit-equal to the person-level ones."""
        rng = np.random.default_rng(3)
        hh = {name: rng.choice([0.0, 250.0, 1200.0, -40.0], 50) + rng.integers(0, 3, 50)
              for name in INCOME_DEFINITIONS}
        hh_row = rng.permutation(np.r_[np.arange(50), rng.integers(0, 50, 90)])
        w = rng.integers(1, 4, hh_row.size).astype(np.float64)
        deciles = rng.integers(1, 11, hh_row.size)
        stats = summarize_households(hh, hh_row, w, deciles)
        for name, values in hh.items():
            person = values[hh_row]
            mean, gini, table = stats[name]
            assert bits(gini) == bits(weighted_gini(person, w))
            assert bits(mean) == bits(np.sum(person * w) / np.sum(w))
            assert table.tobytes() == person_decile_means(person, w, deciles).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_hh=st.integers(1, 8))
    def test_means_and_ginis_match_exact_person_double_sum(self, data, n_hh):
        """Each household mean and Gini against exact arithmetic on the
        persons, the Gini as sum_i sum_j w_i w_j |x_i - x_j| / (2 W^2 mu).
        The tolerance is 1e-12 relative, times k = sum w|x| / |sum w x|, the
        condition of a sum of mixed signs (k = 1 for incomes of one sign);
        draws with k past 1e6, the exact mean 0 among them, are skipped.

        Subnormal values keep being drawn, but gradual underflow has no
        relative precision: each product, sum or quotient that lands below
        2**-1022 may be off by up to half a subnormal ulp (2**-1074), far
        more than 1e-12 of a subnormal mean. So the weighted sum W mu also
        gets an absolute floor of 4 subnormal ulps per term, `floor`, which
        covers the products w x, their weights' sums and the Gini's terms
        w x (2 c - w - W) at weights of at least 0.25; the Gini, a ratio to
        W mu, gets the same floor relative to |W mu|. A draw whose exact
        W mu lies within the floor of 0 may have a float mean of 0, which
        `weighted_gini` rejects, so it is skipped like an exact mean of 0."""
        hh = {name: np.array(data.draw(st.lists(HOUSEHOLD_VALUE, min_size=n_hh,
                                                max_size=n_hh)))
              for name in INCOME_DEFINITIONS}
        extra = data.draw(st.lists(st.integers(0, n_hh - 1), max_size=16))
        hh_row = np.array(data.draw(st.permutations(list(range(n_hh)) + extra)))
        w = np.array(data.draw(st.lists(st.sampled_from([0.25, 1.0, 1.5, 3.0])
                                        | st.floats(0.25, 4.0),
                                        min_size=hh_row.size, max_size=hh_row.size)))
        pw = [Fraction(v) for v in w]
        total = sum(pw)
        floor = Fraction(4 * hh_row.size, 2**1074)
        exact = {}
        for name in INCOME_DEFINITIONS:
            x = [Fraction(v) for v in hh[name][hh_row]]
            mean = sum(wi * xi for wi, xi in zip(pw, x)) / total
            assume(abs(mean * total) > floor)
            k = float(sum(wi * abs(xi) for wi, xi in zip(pw, x)) / abs(mean * total))
            assume(k < 1e6)
            spread = sum(wi * wj * abs(xi - xj) for wi, xi in zip(pw, x) for wj, xj in zip(pw, x))
            rel = 1e-12 * k + float(floor / abs(mean * total))
            exact[name] = float(mean), float(spread / (2 * total * total * mean)), k, rel
        stats = summarize_households(hh, hh_row, w)
        for name, (mean, gini, k, rel) in exact.items():
            assert abs(stats[name][0] - mean) <= 1e-12 * k * abs(mean) + float(floor / total)
            assert abs(stats[name][1] - gini) <= rel * (1.0 + abs(gini))


class TestSummaryTables:
    def test_redistribution_row_is_the_decomposition_of_the_gini_row(self, tmp_path):
        rng = np.random.default_rng(8)
        hh_row = np.repeat(np.arange(30), 2)
        summaries = []
        for label in ("a", "b"):
            stats = summarize_households({name: rng.uniform(-100, 3000, 30)
                                          for name in INCOME_DEFINITIONS}, hh_row, np.ones(60))
            summaries.append(DistributionSummary(label, *(
                {name: stats[name][k] for name in INCOME_DEFINITIONS} for k in range(3))))
        write_summary_tables(tmp_path, summaries)
        rows = (tmp_path / "redistribution.csv").read_text().splitlines()[1:]
        assert rows == [",".join([s.label] + [f"{x:.6f}" for x in redistribution_decomposition(
            *(s.gini[name] for name in INCOME_DEFINITIONS))]) for s in summaries]


class TestQuantileGroups:
    def test_unit_weights_split_evenly(self):
        groups = weighted_quantile_groups(np.arange(100), np.ones(100), 10)
        counts = np.bincount(groups)[1:]
        assert np.all(counts == 10)
        # ranking order respected
        assert groups[0] == 1 and groups[99] == 10

    def test_boundary_unit_goes_to_lower_group(self):
        # weights 1,1,2: cumulative 1,2,4 -> halves cut at 2; the second unit
        # exactly reaches the boundary and stays in group 1
        groups = weighted_quantile_groups(np.arange(3), np.array([1.0, 1.0, 2.0]), 2)
        assert groups.tolist() == [1, 1, 2]

    def test_group_weights_within_one_unit(self):
        rng = np.random.default_rng(42)
        values = rng.normal(size=500)
        weights = rng.uniform(0.5, 1.5, 500)
        groups = weighted_quantile_groups(np.argsort(values, kind="stable"), weights, 10)
        totals = np.array([weights[groups == g].sum() for g in range(1, 11)])
        assert np.all(np.abs(totals - weights.sum() / 10) <= weights.max())


# a population: each household's size, its non-negative income and its
# weight, carried by every person (unit weights, or jittered as in a survey)
POPULATIONS = st.integers(1, 40).flatmap(lambda n_hh: st.tuples(
    st.lists(st.integers(1, 6), min_size=n_hh, max_size=n_hh),
    st.lists(st.sampled_from([0.0, 125.5, 900.0]) | st.floats(0.0, 1e5), min_size=n_hh,
             max_size=n_hh),
    st.just([1.0] * n_hh) | st.lists(st.floats(0.5, 1.5), min_size=n_hh, max_size=n_hh),
    st.randoms(use_true_random=False)))


class TestDecileMeans:
    def test_uniform_population_equals_grand_mean(self):
        out = decile_means(np.full(100, 42.0), person_groups(
            np.ones(100), weighted_quantile_groups(np.arange(100), np.ones(100), 10)))
        assert np.allclose(out, 42.0)

    def test_shock_to_top_decile_leaves_lower_deciles_fixed(self):
        rng = np.random.default_rng(9)
        base = rng.uniform(10, 100, 1000)
        ranking = base.copy()
        w = np.ones(1000)
        deciles = weighted_quantile_groups(np.argsort(ranking, kind="stable"), w, 10)
        shocked = base.copy()
        shocked[deciles == 10] *= 0.5
        before = decile_means(base, person_groups(w, deciles))
        after = decile_means(shocked, person_groups(w, deciles))
        assert np.allclose(after[:9], before[:9])
        assert after[9] < before[9]

    def test_empty_decile_is_nan(self):
        """0/0 in the empty deciles gives NaN without a RuntimeWarning."""
        deciles = np.array([1, 1, 3, 10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = decile_means(np.array([1.0, 3.0, 5.0, 7.0]), person_groups(np.ones(4), deciles))
        assert out[0] == 2.0 and out[2] == 5.0 and out[9] == 7.0
        assert np.isnan(out[[1, 3, 4, 5, 6, 7, 8]]).all()

    def test_matches_per_decile_masks(self):
        """The masked sums this replaced, to the rounding of a float64 sum."""
        rng = np.random.default_rng(4)
        v, w = rng.uniform(-500, 5000, 2000), rng.uniform(0.5, 1.5, 2000)
        deciles = weighted_quantile_groups(np.argsort(rng.uniform(size=2000)), w, 10)
        expected = [np.sum(v[deciles == d] * w[deciles == d]) / np.sum(w[deciles == d])
                    for d in range(1, 11)]
        assert np.allclose(decile_means(v, person_groups(w, deciles)), expected,
                           rtol=1e-12, atol=0.0)

    @staticmethod
    def population(sizes, values, weights, rand):
        """Persons in a shuffled order, ranked into deciles by their
        household's value, ties by row, as a run ranks its first wave."""
        hh_row = np.repeat(np.arange(len(sizes)), sizes)
        rand.shuffle(hh_row)
        values, w = np.array(values), np.array(weights)[hh_row]
        deciles = weighted_quantile_groups(np.argsort(values[hh_row], kind="stable"), w, 10)
        return hh_row, values, w, deciles

    @settings(max_examples=100, deadline=None)
    @given(POPULATIONS)
    # 5e-324 x 0.5 rounds to 0 per person, but the pair of weight 1 keeps it
    @example(([6, 2], [0.0, 5e-324], [1.0, 0.5], random.Random(0)))
    def test_pairs_match_the_person_bincount(self, population):
        """Summed over (household, decile) pairs, the decile means are the
        exact per-person ones to 1e-12 relative (all terms are of one sign);
        a decile no person is in gives NaN in both. As in TestSummarizeExact,
        gradual underflow has no relative precision: each product below
        2**-1022 may be off by half a subnormal ulp (2**-1074), so a decile
        also gets an absolute floor of 4 ulps per person over its weight."""
        hh_row, values, w, deciles = self.population(*population)
        groups = decile_groups(hh_row, w, deciles)
        assert np.unique(groups[0] * 10 + groups[1]).size == groups[0].size
        got, exact = decile_means(values, groups), exact_decile_means(values[hh_row], w, deciles)
        persons = np.bincount(deciles, minlength=11)[1:]
        held = persons > 0
        assert np.array_equal(np.isnan(got), ~held) and np.array_equal(np.isnan(exact), ~held)
        floor = 4 * persons[held] * 2.0**-1074 / groups[3][held]
        assert np.all(np.abs(got - exact)[held] <= 1e-12 * np.abs(exact[held]) + floor), (
            got, exact)

    def test_households_straddle_decile_boundaries(self):
        """The population strategy does put one household in two deciles:
        pairs outnumber households, and each decile weighs its persons."""
        hh_row, values, w, deciles = self.population(
            [5, 6, 4, 6, 5, 3], [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
            [1.0, 1.3, 0.7, 1.1, 0.9, 1.2], random.Random(1))
        hh, decile, pair_weight, weight_sums = decile_groups(hh_row, w, deciles)
        assert hh.size > 6 and np.array_equal(hh, np.sort(hh))
        assert np.allclose(np.bincount(hh, weights=pair_weight), np.bincount(hh_row, weights=w))
        assert np.allclose(np.bincount(decile, weights=pair_weight, minlength=11)[1:],
                           weight_sums)
        np.testing.assert_allclose(decile_means(values, (hh, decile, pair_weight, weight_sums)),
                                   person_decile_means(values[hh_row], w, deciles),
                                   rtol=1e-12, atol=0.0)


class TestRedistribution:
    def test_before_crisis_row(self):
        out = redistribution_decomposition(0.490, 0.363, 0.290, 0.308)
        assert out[0] == pytest.approx(-0.127, abs=1e-12)
        assert out[1] == pytest.approx(-0.073, abs=1e-12)
        assert out[2] == pytest.approx(0.018, abs=1e-12)

    def test_first_wave_row(self):
        out = redistribution_decomposition(0.609, 0.349, 0.276, 0.290)
        assert out[0] == pytest.approx(-0.260, abs=1e-12)
        assert out[1] == pytest.approx(-0.073, abs=1e-12)
        assert out[2] == pytest.approx(0.014, abs=1e-12)

    def test_equal_inputs_give_zero(self):
        assert redistribution_decomposition(0.3, 0.3, 0.3, 0.3) == (0.0, 0.0, 0.0)

    def test_terms_telescope(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = rng.uniform(0, 1, 4)
            out = redistribution_decomposition(*g)
            assert sum(out) == pytest.approx(g[3] - g[0], abs=1e-15)
