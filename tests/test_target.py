import numpy as np
import pytest

from fedte.errors import ConfigError
from fedte.target import TargetTracker

from conftest import ensemble_target, ensemble_weights


def test_first_update_returns_model_unchanged():
    for beta in (0.0, 0.2, 0.9):
        tracker = TargetTracker(beta)
        g = np.array([1.5, -2.0], dtype=np.float32)
        assert np.allclose(tracker.update(g), g, rtol=1e-7)


def test_zero_momentum_tracks_last_model():
    tracker = TargetTracker(0.0)
    for v in (1.0, -3.0, 7.5):
        g = np.array([v], dtype=np.float32)
        assert np.array_equal(tracker.update(g), g)


def test_worked_example_beta_02():
    tracker = TargetTracker(0.2)
    tracker.update(np.array([1.0]))
    t = tracker.update(np.array([2.0]))
    # ensemble = 0.8*2 + 0.2*0.8 = 1.76; corrected = 1.76 / 0.96
    assert t[0] == pytest.approx(1.76 / 0.96, rel=1e-9)
    assert t[0] == pytest.approx(1.83333333, rel=1e-6)


def test_invalid_momentum():
    with pytest.raises(ConfigError):
        TargetTracker(1.0)
    with pytest.raises(ConfigError):
        TargetTracker(-0.1)


def test_round_counter_strictly_increases():
    tracker = TargetTracker(0.5)
    g = np.array([1.0])
    t1 = tracker.update(g).copy()
    assert tracker.round == 1
    t2 = tracker.update(g)
    assert tracker.round == 2
    assert np.array_equal(t1, t2)  # same input, but state advanced
    tracker.update(np.array([5.0]))
    assert tracker.round == 3


def test_weights_trivial_cases():
    assert np.allclose(ensemble_weights(1, 0.7), [1.0])
    assert np.allclose(ensemble_weights(4, 0.0), [0, 0, 0, 1])
    w = ensemble_weights(2, 0.2)
    assert np.allclose(w, [1 / 6, 5 / 6], rtol=1e-9)


@pytest.mark.parametrize("beta", [0.0, 0.2, 0.4, 0.6, 0.9])
def test_weights_are_convex(beta):
    for t in (1, 2, 5, 50):
        w = ensemble_weights(t, beta)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("beta", [0.0, 0.2, 0.4, 0.6, 0.9])
def test_tracker_matches_closed_form(beta):
    rng = np.random.default_rng(42)
    history = [rng.normal(size=8).astype(np.float32) for _ in range(50)]
    tracker = TargetTracker(beta)
    for t, g in enumerate(history, start=1):
        current = tracker.update(g)
        oracle = ensemble_target(history[:t], beta)
        scale = max(np.abs(oracle).max(), 1e-12)
        assert np.abs(current - oracle).max() <= 1e-6 * scale


def test_target_within_history_hull():
    rng = np.random.default_rng(7)
    history = [rng.normal(size=5) for _ in range(10)]
    stack = np.array(history)
    tracker = TargetTracker(0.6)
    for t, g in enumerate(history, start=1):
        current = tracker.update(g)
        lo = stack[:t].min(axis=0)
        hi = stack[:t].max(axis=0)
        assert np.all(current >= lo - 1e-9)
        assert np.all(current <= hi + 1e-9)
