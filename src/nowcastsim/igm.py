"""Income-generation-model evaluation: logit and linear predictions from
coefficient tables, stochastic residual draws, and base-year-anchored
Monte Carlo draws.

No estimation happens here; coefficient sets are inputs, loaded from a
CSV read by `files.csv_rows` (required columns model_name, kind, outcome,
covariate, value; intercept rows use the covariate name "_constant"), so
a bad row is reported as `<file>:<line>`.

A model the caller requires is checked once, at load, against its kind
and the covariates the caller supplies: a row naming another covariate
fails at its line, and a supplied covariate without a row has coefficient 0.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .files import csv_rows, finite
from .rng import anchored_uniform, keyed_normal, keyed_uniform

KINDS = ("logit", "linear")


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class CoefficientSet:
    """One named regression model: an intercept plus a coefficient per
    covariate, for one of the supported kinds.
    """

    name: str
    kind: str
    covariates: tuple
    coefficients: tuple  # floats, one per covariate
    intercept: float


def linear_predict(model: CoefficientSet, covariates: dict):
    """Linear index intercept + sum(beta * x) over the model's covariates,
    whose values are aligned numpy arrays (bool, int or float, each read as
    float64); a float64 array.
    """
    total = model.intercept
    for name, beta in zip(model.covariates, model.coefficients):
        if name in covariates:  # an absent covariate reads as 0
            total = total + beta * covariates[name]
    if not np.all(np.isfinite(total)):
        raise ModelError(f"{model.name}: non-finite linear index")
    return total


def logit_prob(model: CoefficientSet, covariates: dict):
    """Logistic probability sigma(intercept + sum beta*x), strictly in (0, 1)."""
    idx = linear_predict(model, covariates)
    p = 1.0 / (1.0 + np.exp(-idx))
    return np.clip(p, 1e-12, 1.0 - 1e-12)


def draw_residual(model_name: str, scale: float, seed: int, ids):
    """Stochastic residuals: normal with mean 0 and the configured sd,
    keyed by (seed, unit id, model name). No engine path calls it."""
    if scale < 0:
        raise ModelError(f"{model_name}: residual scale must be non-negative")
    z = keyed_normal(seed, "residual:" + model_name, ids)
    return z * scale


def anchored_draws(probs, observed, seed: int, label: str, ids) -> np.ndarray:
    """Uniform draws consistent with the observed base-year outcomes.

    Each u lies in [0, p) when observed and [p, 1) when not, so replaying
    at the base-year probability reproduces the observation and a
    counterfactual probability p' flips the outcome only when it crosses u.
    """
    raw = keyed_uniform(seed, label, ids)
    return anchored_uniform(probs, observed, raw)


def load_coefficients(path, required: dict) -> dict:
    """Load coefficient sets from a CSV of
    (model_name, kind, outcome, covariate, value); each model has one
    outcome label and one row per covariate. `required` maps each model the
    caller evaluates to (kind, supplied covariate names); others load unchecked."""
    rows = {}
    for where, rec in csv_rows(path, {"model_name": str, "kind": str, "outcome": str,
                                      "covariate": str, "value": finite}, ModelError,
                               ("model_name", "covariate")):
        name, kind, outcome, covariate = (rec["model_name"], rec["kind"], rec["outcome"],
                                          rec["covariate"])
        if kind not in KINDS:
            raise ModelError(f"{where}: {name}: unknown model kind {kind!r}")
        model = rows.setdefault(name, {"kind": kind, "outcome": outcome, "coeffs": {}})
        if model["kind"] != kind:
            raise ModelError(f"{where}: {name} declared with two kinds")
        if model["outcome"] != outcome:
            raise ModelError(f"{where}: {name} declared with a second outcome "
                             f"{outcome!r}; a {kind} model has one")
        if name in required and covariate != "_constant" and covariate not in required[name][1]:
            raise ModelError(f"{where}: {name} has no covariate {covariate!r}")
        model["coeffs"][covariate] = rec["value"]
    for name, (kind, _) in required.items():
        if name not in rows or rows[name]["kind"] != kind:
            raise ModelError(f"{os.path.basename(path)}: the engine needs a {kind} model "
                             f"{name!r}")

    models = {}
    for name, entry in rows.items():
        coeffs = entry["coeffs"]
        covariates = sorted(c for c in coeffs if c != "_constant")
        models[name] = CoefficientSet(
            name=name,
            kind=entry["kind"],
            covariates=tuple(covariates),
            coefficients=tuple(coeffs[c] for c in covariates),
            intercept=coeffs.get("_constant", 0.0),
        )
    return models
