"""Run metrics (rounds-to-accuracy, converged accuracy) and PCA of model history.

The PCA works on the T x T Gram matrix of the centered model history instead
of the P x P covariance, since the parameter count P is much larger than the
number of stored rounds.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def check_threshold(threshold):
    """An accuracy threshold, which must lie in (0, 1)."""
    if not (0 < threshold < 1):
        raise ConfigError(f"threshold must be in (0, 1), got {threshold}")
    return threshold


def rounds_to_accuracy(accuracy, threshold):
    """1-based round of the first accuracy reaching the threshold, or None."""
    check_threshold(threshold)
    for i, acc in enumerate(accuracy, start=1):
        if acc >= threshold:
            return i
    return None


def converged_accuracy(accuracy, window):
    """Mean of the final `window` entries of a per-round accuracy curve."""
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    if window > len(accuracy):
        raise ConfigError(f"window {window} exceeds {len(accuracy)} rounds")
    return float(np.mean(accuracy[-window:]))


@dataclass
class Trajectory2D:
    points: list  # (round, x, y) per stored model
    explained_variance_ratio: tuple  # top-2 ratios, descending
    components: np.ndarray  # (2, P) principal directions (zero rows if degenerate)


def pca_trajectory(models, rounds=None):
    """Project a model history onto its top-2 principal directions.

    Component signs are fixed by making the first nonzero loading positive.
    Degenerate directions (zero variance) yield zero components/projections.
    """
    xc = np.array(models, dtype=np.float64)  # one (T, P) copy, centered in place
    t, p = xc.shape
    if t < 3:
        raise ConfigError(f"need at least 3 models for a trajectory, got {t}")
    if rounds is None:
        rounds = list(range(1, t + 1))
    if len(rounds) != t:
        raise ConfigError("rounds list must match number of models")

    xc -= xc.mean(axis=0)
    gram = xc @ xc.T
    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1]
    total = float(np.clip(evals, 0, None).sum())

    components = np.zeros((2, p))
    projections = np.zeros((2, t))
    ratios = [0.0, 0.0]
    for out_i, ev_i in enumerate(order[:2]):
        lam = max(float(evals[ev_i]), 0.0)
        if total > 0:
            ratios[out_i] = lam / total
        if lam > 1e-12 * max(total, 1e-300):
            v = xc.T @ evecs[:, ev_i] / np.sqrt(lam)
            nz = np.flatnonzero(np.abs(v) > 1e-12)
            if nz.size and v[nz[0]] < 0:
                v = -v
            components[out_i] = v
            projections[out_i] = xc @ v

    points = [
        (rounds[i], float(projections[0, i]), float(projections[1, i]))
        for i in range(t)
    ]
    return Trajectory2D(points, (ratios[0], ratios[1]), components)
