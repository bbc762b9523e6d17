import math

import numpy as np
import pytest

from nowcastsim.igm import (CoefficientSet, ModelError, anchored_draws,
                            draw_residual, linear_predict, load_coefficients,
                            logit_prob)


def make_logit(covariates, coefficients, intercept):
    return CoefficientSet(
        name="m", kind="logit", covariates=tuple(covariates),
        coefficients=tuple(coefficients), intercept=intercept,
    )


def make_linear(covariates, coefficients, intercept):
    return CoefficientSet(
        name="m", kind="linear", covariates=tuple(covariates),
        coefficients=tuple(coefficients), intercept=intercept,
    )


class TestLogit:
    def test_zero_index_gives_half(self):
        model = make_logit(["a"], [0.0], 0.0)
        assert logit_prob(model, {"a": 0.0}) == 0.5

    def test_transport_reference_person(self, tables):
        # all dummies zero: sigma of the intercept
        model = tables.models["transport_public"]
        expected = 1.0 / (1.0 + math.exp(2.839))
        assert logit_prob(model, {}) == pytest.approx(expected, abs=1e-12)
        assert 0.055 < logit_prob(model, {}) < 0.0555

    def test_transport_region_shift(self, tables):
        model = tables.models["transport_public"]
        expected = 1.0 / (1.0 + math.exp(2.839 + 1.457))
        assert logit_prob(model, {"region_bmw": 1.0}) == pytest.approx(expected, abs=1e-12)
        assert 0.0133 < logit_prob(model, {"region_bmw": 1.0}) < 0.0135

    def test_monotone_in_positive_coefficient(self):
        model = make_logit(["x"], [0.8], -1.0)
        probs = [logit_prob(model, {"x": v}) for v in np.linspace(-3, 3, 13)]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_missing_dummy_reads_as_zero(self):
        model = make_logit(["a", "b"], [1.0, 5.0], 0.0)
        assert logit_prob(model, {"a": 0.0}) == logit_prob(model, {"a": 0.0, "b": 0.0})

    def test_result_strictly_inside_unit_interval(self):
        model = make_logit(["x"], [1.0], 0.0)
        assert 0.0 < logit_prob(model, {"x": -500.0})
        assert logit_prob(model, {"x": 500.0}) < 1.0


class TestLinear:
    def test_childcare_expenditure_example(self, tables):
        model = tables.models["childcare_spend"]
        out = linear_predict(model, {
            "n_children_0_4": 1.0, "n_children": 1.0, "equiv_income_week": 0.0,
            "two_workers_or_working_lone_parent": 1.0,
        })
        assert out == pytest.approx(-15.5 + 28.0 + 0.0 + 54.0, abs=1e-12)

    def test_all_zero_covariates_give_intercept(self):
        model = make_linear(["a", "b"], [2.0, 3.0], -7.5)
        assert linear_predict(model, {"a": 0.0, "b": 0.0}) == -7.5

    def test_linearity_in_each_covariate(self):
        model = make_linear(["a", "b"], [2.0, 3.0], 1.0)
        base = linear_predict(model, {"a": 1.0, "b": 1.0})
        assert linear_predict(model, {"a": 2.0, "b": 1.0}) == base + 2.0


class TestResiduals:
    # childcare_costs_cents recovers the expenditure residual inline as
    # observation minus linear prediction, over whole arrays
    def test_recovery_is_difference(self):
        model = make_linear(["a"], [1.0], 0.0)
        assert 100.0 - linear_predict(model, {"a": 80.0}) == 20.0
        assert 80.0 - linear_predict(model, {"a": 80.0}) == 0.0

    def test_resimulation_with_recovered_residual_is_exact(self):
        rng = np.random.default_rng(31)
        model = make_linear(["a", "b"], [1.5, -0.5], 3.0)
        cov = {"a": rng.normal(size=50), "b": rng.normal(size=50)}
        observed = rng.normal(size=50)
        prediction = np.asarray(linear_predict(model, cov))
        eps = observed - prediction
        # exact up to the one-ulp double rounding of (obs - pred) + pred
        assert prediction + eps == pytest.approx(observed, abs=1e-14, rel=1e-14)


class TestDrawResidual:
    def test_zero_scale_is_degenerate(self):
        assert np.all(draw_residual("m", 0.0, 1, np.arange(100)) == 0.0)

    def test_moments_at_unit_scale(self):
        eps = draw_residual("m", 1.0, 17, np.arange(100_000))
        assert abs(eps.mean()) < 0.02
        assert abs(eps.std() - 1.0) < 0.02

    def test_deterministic_per_key(self):
        a = draw_residual("m", 0.5, 3, np.array([7]))
        b = draw_residual("m", 0.5, 3, np.array([7]))
        assert a == b

    def test_negative_scale_rejected(self):
        with pytest.raises(ModelError):
            draw_residual("m", -0.1, 1, np.array([1]))


class TestAnchoredDraws:
    def test_observed_true_band(self):
        u = anchored_draws(np.full(200, 0.5), np.ones(200, dtype=bool), 1, "s",
                           np.arange(200))
        assert np.all((0.0 <= u) & (u < 0.5))

    def test_counterfactual_flip_upwards(self):
        u = anchored_draws(np.array([0.5]), np.array([False]), 1, "s", np.array([3]))
        assert u[0] >= 0.5
        assert u[0] < 1.0  # under p' = 1.0 the outcome turns true

    def test_replay_reproduces_all_observed_outcomes(self):
        rng = np.random.default_rng(41)
        n = 10_000
        probs = rng.uniform(0.05, 0.95, n)
        observed = rng.uniform(size=n) < probs
        u = anchored_draws(probs, observed, 5, "replay", np.arange(n))
        assert np.array_equal(u < probs, observed)

    def test_degenerate_probability_rejected(self):
        with pytest.raises(ValueError):
            anchored_draws(np.array([1.0]), np.array([True]), 1, "s", np.array([1]))


class TestLoader:
    def test_shipped_tables_parse(self, tables):
        assert set(tables.models) == {"transport_public", "transport_private",
                                      "childcare_has", "childcare_spend"}
        public = tables.models["transport_public"]
        assert public.kind == "logit"
        assert public.intercept == -2.839
        assert len(public.covariates) == 29

    def test_unsupported_kind_rejected_with_location(self, tmp_path):
        path = tmp_path / "coefficients.csv"
        path.write_text("model_name,kind,outcome,covariate,value\n"
                        "mode,multinomial,bus,_constant,0.5\n")
        with pytest.raises(ModelError, match="coefficients.csv:2: mode: unknown model kind"):
            load_coefficients(path, {})

    def test_second_outcome_rejected_with_location(self, tmp_path):
        path = tmp_path / "coefficients.csv"
        path.write_text("model_name,kind,outcome,covariate,value\n"
                        "mode,logit,bus,_constant,0.5\n"
                        "mode,logit,car,age,0.2\n")
        with pytest.raises(ModelError, match="coefficients.csv:3: mode declared with a "
                                             "second outcome 'car'"):
            load_coefficients(path, {})

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("model_name,kind\nx,logit\n")
        with pytest.raises(ModelError):
            load_coefficients(path, {})

    def test_unsupplied_covariate_rejected_with_location(self, tmp_path):
        path = tmp_path / "coefficients.csv"
        path.write_text("model_name,kind,outcome,covariate,value\n"
                        "mode,logit,bus,_constant,0.5\n"
                        "mode,logit,bus,age,0.1\n"
                        "mode,logit,bus,income,0.2\n")
        with pytest.raises(ModelError, match="coefficients.csv:4: mode has no covariate "
                                             "'income'"):
            load_coefficients(path, {"mode": ("logit", ("age", "region"))})
        # a model not required loads unchecked
        assert load_coefficients(path, {})["mode"].covariates == ("age", "income")

    def test_supplied_covariate_without_row_has_coefficient_zero(self, tmp_path):
        path = tmp_path / "coefficients.csv"
        path.write_text("model_name,kind,outcome,covariate,value\n"
                        "mode,logit,bus,_constant,0.5\n"
                        "mode,logit,bus,age,0.1\n")
        model = load_coefficients(path, {"mode": ("logit", ("age", "region"))})["mode"]
        assert model.covariates == ("age",)
        assert logit_prob(model, {"age": 1.0, "region": 1.0}) == logit_prob(model, {"age": 1.0})

    @pytest.mark.parametrize("required, message", [
        ({"car": ("logit", ("age",))}, "coefficients.csv: the engine needs a logit model 'car'"),
        ({"mode": ("linear", ("age",))},
         "coefficients.csv: the engine needs a linear model 'mode'"),
    ])
    def test_missing_or_wrong_kind_required_model_rejected(self, tmp_path, required, message):
        path = tmp_path / "coefficients.csv"
        path.write_text("model_name,kind,outcome,covariate,value\n"
                        "mode,logit,bus,_constant,0.5\n")
        with pytest.raises(ModelError, match=message):
            load_coefficients(path, required)
