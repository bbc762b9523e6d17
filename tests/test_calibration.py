import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nowcastsim.calibration import (AlignmentError, IpfError, align_binary,
                                    align_continuous, ipf, score_order)
from nowcastsim.metrics import weighted_gini
from nowcastsim.rng import logistic_noise


def spearman(a, b):
    ra = np.argsort(np.argsort(a))
    rb = np.argsort(np.argsort(b))
    return np.corrcoef(ra, rb)[0, 1]


class TestAlignBinary:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.ids = np.arange(1000)
        self.probs = rng.uniform(0.01, 0.99, 1000)
        self.weights = np.ones(1000)

    def test_zero_target_selects_nothing(self):
        assert align_binary(self.ids, self.probs, self.weights, 0.0, 1, "t").size == 0

    def test_full_target_selects_everything(self):
        out = align_binary(self.ids, self.probs, self.weights, 1000.0, 1, "t")
        assert np.array_equal(out, self.ids)

    def test_unit_weights_hit_target_exactly(self):
        out = align_binary(self.ids, self.probs, self.weights, 300.0, 1, "t")
        assert out.size == 300

    def test_probability_ranking_respected_across_seeds(self):
        freq = np.zeros(1000)
        for seed in range(100):
            out = align_binary(self.ids, self.probs, self.weights, 300.0, seed, "t")
            freq[out] += 1
        assert spearman(self.probs, freq) > 0.5

    def test_order_independence_and_determinism(self):
        out1 = align_binary(self.ids, self.probs, self.weights, 250.0, 7, "t")
        perm = np.random.default_rng(0).permutation(1000)
        out2 = align_binary(self.ids[perm], self.probs[perm], self.weights[perm],
                            250.0, 7, "t")
        assert np.array_equal(out1, out2)
        out3 = align_binary(self.ids, self.probs, self.weights, 250.0, 7, "t")
        assert np.array_equal(out1, out3)

    def test_weighted_realization_within_one_unit_weight(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            n = int(rng.integers(5, 80))
            ids = np.arange(n)
            probs = rng.uniform(0.02, 0.98, n)
            weights = rng.uniform(0.3, 2.5, n)
            target = rng.uniform(0, weights.sum())
            out = align_binary(ids, probs, weights, target, trial, "w")
            realized = weights[np.isin(ids, out)].sum()
            assert abs(realized - target) <= weights.max() + 1e-9

    def test_infeasible_target_raises(self):
        with pytest.raises(AlignmentError):
            align_binary(self.ids, self.probs, self.weights, 1001.0, 1, "t")
        with pytest.raises(AlignmentError):
            align_binary(np.empty(0, int), np.empty(0), np.empty(0), 5.0, 1, "t")

    def test_degenerate_probs_rejected(self):
        with pytest.raises(AlignmentError):
            align_binary(np.array([1]), np.array([1.0]), np.array([1.0]), 1.0, 1, "t")


# scores drawn often from a few values, so that ties (0.0 and -0.0 among
# them) and NaNs are common, and otherwise from every float
SCORES = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -2.0, np.nan, np.inf]),
                   st.floats(allow_nan=True, allow_infinity=True))


class TestScoreOrder:
    """score_order keeps numpy's default argsort only when the sorted keys
    strictly increase; every other input takes the stable lexsort."""

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(-2**40, 2**40), SCORES), max_size=40))
    def test_matches_lexsort(self, pairs):
        ids = np.array([i for i, _ in pairs], dtype=np.int64)  # in any order, repeats allowed
        scores = np.array([s for _, s in pairs], dtype=np.float64)
        expected = np.lexsort((ids, -scores))
        assert np.array_equal(score_order(ids, scores), expected)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_lexsort_on_alignment_noise(self, seed):
        ids = np.random.default_rng(seed).permutation(26000) * 3 + 1
        scores = logistic_noise(seed, "align:pup:construction", ids)
        assert np.array_equal(score_order(ids, scores), np.lexsort((ids, -scores)))
        tied = np.round(scores, 1)
        assert np.array_equal(score_order(ids, tied), np.lexsort((ids, -tied)))


class TestAlignContinuous:
    def test_identity_when_target_equals_mean(self):
        values = np.array([2.0, 4.0, 9.0])
        out = align_continuous(values, np.ones(3), values.mean())
        assert np.allclose(out, values)

    def test_simple_doubling(self):
        out = align_continuous(np.array([10.0, 30.0]), np.array([1.0, 1.0]), 40.0)
        assert out.tolist() == [20.0, 60.0]

    def test_weighted_mean_hits_target(self):
        rng = np.random.default_rng(4)
        values = rng.lognormal(2, 1, 500)
        weights = rng.uniform(0.5, 2, 500)
        out = align_continuous(values, weights, 123.456)
        mean = (out * weights).sum() / weights.sum()
        assert mean == pytest.approx(123.456, rel=1e-9)

    def test_gini_is_preserved(self):
        rng = np.random.default_rng(6)
        values = rng.lognormal(1, 0.8, 300)
        weights = rng.uniform(0.5, 2, 300)
        out = align_continuous(values, weights, 999.0)
        assert weighted_gini(out, weights) == pytest.approx(
            weighted_gini(values, weights), abs=1e-12)

    def test_zero_mean_rejected(self):
        with pytest.raises(AlignmentError):
            align_continuous(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 5.0)


class TestIpf:
    def test_fixed_point_returned_unchanged(self):
        seed = np.array([[1.0, 1.0], [2.0, 2.0]])
        out = ipf(seed, [2.0, 4.0], [3.0, 3.0])
        assert np.allclose(out, seed)

    def test_hand_iterated_2x2(self):
        out = ipf(np.ones((2, 2)), [1.0, 3.0], [2.0, 2.0])
        assert np.allclose(out, [[0.5, 0.5], [1.5, 1.5]], atol=1e-12)

    def test_zero_cells_stay_zero(self):
        seed = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        out = ipf(seed, [2.0, 3.0, 2.0], [2.0, 2.0, 3.0])
        assert out[0, 1] == 0.0 and out[2, 0] == 0.0

    def test_random_instances_match_marginals(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            seed = rng.uniform(0.1, 2.0, (5, 5))
            rt = rng.uniform(1.0, 5.0, 5)
            ct = rng.uniform(1.0, 5.0, 5)
            ct *= rt.sum() / ct.sum()
            out = ipf(seed, rt, ct, tol=1e-8)
            assert np.abs(out.sum(axis=1) - rt).max() < 1e-8
            assert np.abs(out.sum(axis=0) - ct).max() < 1e-8

    def test_cross_product_ratios_preserved(self):
        rng = np.random.default_rng(13)
        seed = rng.uniform(0.5, 2.0, (4, 4))
        rt = rng.uniform(1, 4, 4)
        ct = rng.uniform(1, 4, 4)
        ct *= rt.sum() / ct.sum()
        out = ipf(seed, rt, ct)
        before = seed[0, 0] * seed[1, 1] / (seed[0, 1] * seed[1, 0])
        after = out[0, 0] * out[1, 1] / (out[0, 1] * out[1, 0])
        assert after == pytest.approx(before, rel=1e-9)

    def test_marginal_sum_mismatch_rejected(self):
        with pytest.raises(IpfError):
            ipf(np.ones((2, 2)), [1.0, 1.0], [5.0, 5.0])

    def test_nonconvergence_carries_deviation(self):
        # an infeasible zero pattern cannot satisfy these targets
        seed = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(IpfError) as err:
            ipf(seed, [1.0, 1.0], [1.0, 1.0], max_iter=5)
        assert "positive" in str(err.value) or err.value.deviation is not None

    def test_row_without_support_rejected(self):
        seed = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(IpfError):
            ipf(seed, [1.0, 1.0], [1.0, 1.0])
