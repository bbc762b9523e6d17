"""Keyed deterministic random streams.

Every stochastic draw in the engine is a pure function of
(global seed, stream label, unit id). There is no sequential generator
state, so results are independent of iteration order and thread count,
and a unit keeps the same draw across scenarios unless the label changes.

The generator is a SplitMix64-style integer mix of the three keys; the
53 high bits give a uniform in [0, 1).
"""
from __future__ import annotations

import hashlib

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_U53 = 1.0 / (1 << 53)


def _mix(z: np.ndarray) -> np.ndarray:
    z = z + _GAMMA  # uint64 arithmetic wraps modulo 2**64
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _label_key(label: str) -> np.uint64:
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
    return np.uint64(int.from_bytes(digest, "little"))


def keyed_uniform(seed: int, label: str, ids) -> np.ndarray:
    """Uniform draws in [0, 1), one per id, keyed by (seed, label, id)."""
    with np.errstate(over="ignore"):
        state = _mix(_mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF)) ^ _label_key(label))
        out = _mix(state ^ np.asarray(ids, dtype=np.uint64))
    return (out >> np.uint64(11)).astype(np.float64) * _U53


def keyed_normal(seed: int, label: str, ids) -> np.ndarray:
    """Standard normal draws keyed like keyed_uniform (Box-Muller)."""
    u1 = np.maximum(keyed_uniform(seed, label + "\x00bm1", ids), 1e-300)
    u2 = keyed_uniform(seed, label + "\x00bm2", ids)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def logistic_noise(seed: int, label: str, ids) -> np.ndarray:
    """Standard-logistic draws, used to perturb alignment rankings."""
    u = keyed_uniform(seed, label, ids)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return np.log(u) - np.log1p(-u)


def anchored_uniform(prob, observed, raw):
    """Map a raw uniform into the band consistent with the observed state.

    Returns u in [0, prob) when observed is true and u in [prob, 1)
    otherwise, so the rule (u < prob => outcome true) replays the observed
    state exactly, and a counterfactual probability flips the outcome only
    when it crosses u.
    """
    if np.any(prob <= 0.0) or np.any(prob >= 1.0):
        raise ValueError("anchored draws need probabilities strictly inside (0, 1)")
    return np.where(observed, prob * raw, prob + (1.0 - prob) * raw)
