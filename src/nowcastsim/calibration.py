"""Alignment of simulated outcomes to external control totals, plus
iterative proportional fitting for two-way cell imputation.

Binary alignment uses the sort-by-score method: each unit gets a score
q = logit(p) + logistic noise (noise keyed by unit id, so the ranking is
independent of input order and stable across calls), units are sorted by
descending q with ties broken by ascending id, and selected greedily until
the cumulative weight first reaches the target.

Targets are weighted counts throughout; infeasible targets raise rather
than clamp, because control totals come from external files and silent
clamping hides ingestion bugs.
"""
from __future__ import annotations

import math

import numpy as np

from .rng import logistic_noise


class AlignmentError(ValueError):
    pass


class IpfError(ValueError):
    def __init__(self, message, deviation=None):
        super().__init__(message)
        self.deviation = deviation


def _logit(p: np.ndarray) -> np.ndarray:
    return np.log(p) - np.log1p(-p)


def align_by_score(ids, scores, weights, target: float) -> np.ndarray:
    """Greedy core: take units in descending score order (ties by ascending
    id) until cumulative weight first reaches `target`. Returns selected
    ids, ascending."""
    order = score_order(ids, scores)
    return take_by_score(ids[order], weights[order], target, float(np.sum(weights)))


def score_order(ids, scores) -> np.ndarray:
    """Rank step: units in descending score order, ties by ascending id.
    Without ties or NaNs the order is unique, so numpy's default argsort
    gives it; otherwise it is the stable lexsort's."""
    keys = -scores
    order = np.argsort(keys)
    ranked = keys[order]
    if np.all(ranked[1:] > ranked[:-1]):
        return order
    return np.lexsort((ids, keys))


def take_by_score(ranked, ranked_weights, target: float, total: float) -> np.ndarray:
    """Take step: the leading units of `ranked` (alignment order, weights
    summing to `total`) whose cumulative weight first reaches `target`, ascending.

    The tolerance is 1e-9 of the target, but at least 1e-9 of the largest
    weight's power of two (1 for weights in [1, 2)), so scaling every weight
    and the target by a power of two selects the same units."""
    unit = math.ldexp(1.0, math.frexp(ranked_weights.max())[1] - 1) if ranked.size else 1.0
    tol = 1e-9 * max(unit, abs(target))
    if target < -tol:
        raise AlignmentError(f"negative target {target}")
    if target <= tol:
        return np.empty(0, dtype=ranked.dtype)
    if ranked.size == 0:
        raise AlignmentError(f"no units available for target {target}")
    if target > total + max(tol, 1e-9 * total):
        raise AlignmentError(
            f"target {target} exceeds available weight {total}"
        )
    cum = np.cumsum(ranked_weights)
    k = int(np.searchsorted(cum, target - tol, side="left"))
    k = min(k, ranked.size - 1)
    return np.sort(ranked[: k + 1])


def binary_scores(ids, probs, seed: int, label: str) -> np.ndarray:
    """logit(p) plus logistic noise keyed by (seed, label, id)."""
    return _logit(probs) + logistic_noise(seed, "align:" + label, ids)


def align_binary(ids, probs, weights, target: float, seed: int, label: str) -> np.ndarray:
    """Select units so the selected weight matches the target count.

    probs must lie strictly inside (0, 1). The realized weighted count is
    within one unit-weight of the target; higher-probability units are
    selected more often over repeated seeds.
    """
    ids = np.asarray(ids)
    probs = np.asarray(probs, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(probs <= 0.0) or np.any(probs >= 1.0):
        raise AlignmentError("alignment probabilities must lie strictly in (0, 1)")
    if np.any(weights <= 0.0):
        raise AlignmentError("alignment weights must be positive")
    return align_by_score(ids, binary_scores(ids, probs, seed, label), weights, target)


def align_continuous(values, weights, target_mean: float) -> np.ndarray:
    """Scale every value by a single factor so the weighted mean hits
    target_mean; ratios (and hence every inequality index) are preserved."""
    current = float(np.sum(values * weights)) / float(np.sum(weights))
    if current == 0.0:
        if target_mean == 0.0:
            return values.copy()
        raise AlignmentError("cannot rescale a zero-mean vector to a nonzero mean")
    return values * (target_mean / current)


def ipf(seed_matrix, row_targets, col_targets, tol: float = 1e-8, max_iter: int = 1000) -> np.ndarray:
    """Iterative proportional fitting of a non-negative seed matrix to
    row and column targets.

    Alternates row and column rescaling until the largest absolute
    marginal deviation drops below tol. Zero seed cells stay zero, and
    cross-product ratios of the seed are preserved wherever defined.
    """
    m = np.asarray(seed_matrix, dtype=np.float64).copy()
    rt = np.asarray(row_targets, dtype=np.float64)
    ct = np.asarray(col_targets, dtype=np.float64)
    if m.ndim != 2 or m.shape != (rt.size, ct.size):
        raise IpfError("seed matrix shape does not match targets")
    if np.any(m < 0):
        raise IpfError("seed matrix cells must be non-negative")
    if np.any(rt < 0) or np.any(ct < 0):
        raise IpfError("targets must be non-negative")
    rsum, csum = float(rt.sum()), float(ct.sum())
    if abs(rsum - csum) > 1e-9 * max(1.0, abs(rsum), abs(csum)):
        raise IpfError(f"row targets sum to {rsum} but column targets sum to {csum}")
    if np.any((m.sum(axis=1) == 0) & (rt > 0)) or np.any((m.sum(axis=0) == 0) & (ct > 0)):
        raise IpfError("a row/column with a positive target has no positive seed cell")

    def deviation(mat):
        dr = np.abs(mat.sum(axis=1) - rt).max() if rt.size else 0.0
        dc = np.abs(mat.sum(axis=0) - ct).max() if ct.size else 0.0
        return max(float(dr), float(dc))

    for _ in range(max_iter):
        if deviation(m) < tol:
            return m
        rs = m.sum(axis=1)
        factors = np.divide(rt, rs, out=np.zeros_like(rs), where=rs > 0)
        m *= factors[:, None]
        cs = m.sum(axis=0)
        factors = np.divide(ct, cs, out=np.zeros_like(cs), where=cs > 0)
        m *= factors[None, :]
    dev = deviation(m)
    if dev < tol:
        return m
    raise IpfError(
        f"ipf did not converge after {max_iter} iterations (deviation {dev:.3e})",
        deviation=dev,
    )
