import numpy as np
import pytest

from fedte.analysis import converged_accuracy, pca_trajectory, rounds_to_accuracy
from fedte.errors import ConfigError


def test_rounds_to_accuracy_first_crossing():
    curve = [0.5, 0.96, 0.94]
    assert rounds_to_accuracy(curve, 0.95) == 2
    assert rounds_to_accuracy(curve, 0.99) is None
    assert rounds_to_accuracy(curve, 1e-9) == 1


def test_rounds_to_accuracy_monotone_in_threshold():
    rng = np.random.default_rng(0)
    curve = np.clip(np.cumsum(rng.uniform(-0.05, 0.1, 40)), 0, 1)
    previous = 0
    for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
        r = rounds_to_accuracy(curve, threshold)
        if r is None:
            break
        assert r >= previous
        previous = r


def test_converged_accuracy():
    assert converged_accuracy([0.7] * 5, 3) == pytest.approx(0.7)
    curve = [0.1, 0.2, 0.8, 0.9, 1.0]
    assert converged_accuracy(curve, 3) == pytest.approx(0.9)
    assert converged_accuracy(curve, 5) == pytest.approx(0.6)
    with pytest.raises(ConfigError):
        converged_accuracy(curve, 0)
    with pytest.raises(ConfigError):
        converged_accuracy(curve, 6)


def test_pca_collinear_history_is_rank_one():
    direction = np.random.default_rng(1).normal(size=200)
    models = [i * direction for i in range(6)]
    traj = pca_trajectory(models)
    assert traj.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-8)
    assert traj.explained_variance_ratio[1] < 1e-8


def test_pca_projection_is_nonexpansive():
    rng = np.random.default_rng(2)
    models = [rng.normal(size=100) for _ in range(8)]
    traj = pca_trajectory(models)
    pts = np.array([[x, y] for _, x, y in traj.points])
    for i in range(8):
        for j in range(i + 1, 8):
            d_proj = np.linalg.norm(pts[i] - pts[j])
            d_orig = np.linalg.norm(models[i] - models[j])
            assert d_proj <= d_orig + 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_pca_matches_direct_eigendecomposition(seed):
    rng = np.random.default_rng(seed)
    models = [rng.normal(size=1000) for _ in range(5)]
    traj = pca_trajectory(models)

    x = np.array(models)
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    for comp_i in range(2):
        direct = evecs[:, order[comp_i]]
        got = traj.components[comp_i]
        err = min(np.abs(got - direct).max(), np.abs(got + direct).max())
        assert err < 1e-6
    direct_ratio = evals[order[:2]] / np.clip(evals, 0, None).sum()
    assert np.allclose(traj.explained_variance_ratio, direct_ratio, atol=1e-8)


def test_pca_components_orthonormal():
    rng = np.random.default_rng(3)
    models = [rng.normal(size=300) for _ in range(10)]
    traj = pca_trajectory(models)
    c = traj.components
    assert abs(np.dot(c[0], c[0]) - 1) < 1e-8
    assert abs(np.dot(c[1], c[1]) - 1) < 1e-8
    assert abs(np.dot(c[0], c[1])) < 1e-8
    assert sum(traj.explained_variance_ratio) <= 1 + 1e-8
    assert traj.explained_variance_ratio[0] >= traj.explained_variance_ratio[1]


def test_pca_sign_convention_deterministic():
    rng = np.random.default_rng(4)
    models = [rng.normal(size=50) for _ in range(6)]
    a = pca_trajectory(models)
    b = pca_trajectory(models)
    assert np.array_equal(a.components, b.components)
    first_nonzero = np.flatnonzero(np.abs(a.components[0]) > 1e-12)[0]
    assert a.components[0][first_nonzero] > 0


def test_pca_needs_three_models():
    with pytest.raises(ConfigError):
        pca_trajectory([np.zeros(5), np.ones(5)])


def test_pca_round_labels():
    rng = np.random.default_rng(5)
    models = [rng.normal(size=20) for _ in range(4)]
    traj = pca_trajectory(models, rounds=[10, 20, 30, 40])
    assert [p[0] for p in traj.points] == [10, 20, 30, 40]
