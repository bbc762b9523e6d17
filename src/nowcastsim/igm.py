"""Income-generation-model evaluation: logit and linear predictions from
coefficient tables, stochastic residual draws, and base-year-anchored
Monte Carlo draws.

No estimation happens here; coefficient sets are inputs, loaded from a
CSV read by `files.csv_rows` (required columns model_name, kind, outcome,
covariate, value; intercept rows use the covariate name "_constant"), so
a bad row is reported as `<file>:<line>`.

Covariates are dummy-coded unless registered as continuous: an absent
dummy reads as 0, while an absent continuous covariate is an error, since
a silent zero on a continuous field masks a data fault.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .files import csv_rows, finite
from .rng import anchored_uniform, keyed_normal, keyed_uniform

KINDS = ("logit", "linear")

# Continuous covariates of the shipped model set; everything else is a dummy.
CONTINUOUS_COVARIATES = frozenset(
    {
        "n_children_0_4",
        "n_children",
        "equiv_income_week",
        "equiv_income_week_sq",
    }
)


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
    continuous: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelError(f"{self.name}: unknown model kind {self.kind!r}")
        if len(self.coefficients) != len(self.covariates):
            raise ModelError(
                f"{self.name}: coefficient count {len(self.coefficients)} != "
                f"covariate count {len(self.covariates)}"
            )


def _index(model: CoefficientSet, covariates: dict):
    """Linear index intercept + sum(beta * x).

    Accepts scalars or aligned numpy arrays as covariate values.
    """
    known = set(model.covariates)
    for name in covariates:
        if name not in known:
            raise ModelError(f"{model.name}: unknown covariate {name!r}")
    total = model.intercept
    for name, beta in zip(model.covariates, model.coefficients):
        if name in covariates:
            x = covariates[name]
        elif name in model.continuous:
            raise ModelError(f"{model.name}: continuous covariate {name!r} missing")
        else:
            continue  # absent dummy reads as 0
        total = total + beta * np.asarray(x, dtype=np.float64)
    idx = np.asarray(total, dtype=np.float64)
    if not np.all(np.isfinite(idx)):
        raise ModelError(f"{model.name}: non-finite linear index")
    return idx


def logit_prob(model: CoefficientSet, covariates: dict):
    """Logistic probability sigma(intercept + sum beta*x), strictly in (0, 1)."""
    if model.kind != "logit":
        raise ModelError(f"{model.name}: logit_prob needs a logit model")
    idx = _index(model, covariates)
    p = 1.0 / (1.0 + np.exp(-idx))
    return np.clip(p, 1e-12, 1.0 - 1e-12)


def linear_predict(model: CoefficientSet, covariates: dict):
    if model.kind != "linear":
        raise ModelError(f"{model.name}: linear_predict needs a linear model")
    return _index(model, covariates)


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


def load_coefficients(path) -> dict:
    """Load coefficient sets from a CSV of
    (model_name, kind, outcome, covariate, value); each model has one
    outcome label and one row per covariate."""
    rows = {}
    for where, rec in csv_rows(path, {"model_name": str, "kind": str, "outcome": str,
                                      "covariate": str, "value": finite}, ModelError):
        name, kind, outcome = rec["model_name"], rec["kind"], rec["outcome"]
        if kind not in KINDS:
            raise ModelError(f"{where}: {name}: unknown model kind {kind!r}")
        model = rows.setdefault(name, {"kind": kind, "outcome": outcome, "coeffs": {}})
        if model["kind"] != kind:
            raise ModelError(f"{where}: {name} declared with two kinds")
        if model["outcome"] != outcome:
            raise ModelError(f"{where}: {name} declared with a second outcome "
                             f"{outcome!r}; a {kind} model has one")
        if rec["covariate"] in model["coeffs"]:
            raise ModelError(f"{where}: second row for {name} covariate {rec['covariate']!r}")
        model["coeffs"][rec["covariate"]] = rec["value"]

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
            continuous=CONTINUOUS_COVARIATES.intersection(covariates),
        )
    return models
