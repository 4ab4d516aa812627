"""CMA-ES: constants, sampling statistics, invariances, benchmark budgets."""

import json
import math

import numpy as np
import pytest

from losslearn.cma import CmaState, cma_init, default_population, stop_reason


def sphere_neg(x):
    return -float(np.sum(x * x))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def run_maximize(fn, state, seed, max_evals):
    rng = np.random.default_rng(seed)
    best = -np.inf
    while state.evals < max_evals:
        xs = state.ask(rng)
        fs = np.array([fn(x) for x in xs])
        best = max(best, float(fs.max()))
        state.tell(xs, fs, maximize=True)
    return best


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_default_population_at_12():
    assert default_population(12) == 11
    state = cma_init(12, sigma0=0.5)
    assert state.lam == 11
    assert state.mu == 5


def test_weights_normalized_and_decreasing():
    state = cma_init(12)
    assert abs(state.weights.sum() - 1.0) < 1e-12
    assert np.all(np.diff(state.weights) < 0)
    assert np.all(state.weights > 0)
    assert 1.0 <= state.mu_eff <= state.mu


def test_init_validation():
    with pytest.raises(ValueError, match="dimension"):
        cma_init(0)
    with pytest.raises(ValueError, match="sigma0"):
        cma_init(3, sigma0=0.0)
    with pytest.raises(ValueError, match="length 3"):
        cma_init(3, mean0=[1.0, 2.0])
    with pytest.raises(ValueError, match="population"):
        cma_init(3, lam=1)


# ---------------------------------------------------------------------------
# Sampling statistics
# ---------------------------------------------------------------------------


def test_initial_samples_have_sigma_squared_covariance():
    sigma0 = 0.7
    state = cma_init(4, sigma0=sigma0, lam=20)
    rng = np.random.default_rng(200)
    draws = np.concatenate([state.ask(rng) for _ in range(5000)])  # 100,000
    emp = np.cov(draws.T, bias=True)
    target = sigma0**2 * np.eye(4)
    assert np.linalg.norm(emp - target, "fro") < 0.05 * sigma0**2


def test_sample_mean_matches_state_mean():
    mean0 = np.array([3.0, -2.0])
    state = cma_init(2, mean0=mean0, sigma0=0.5, lam=20)
    rng = np.random.default_rng(201)
    draws = np.concatenate([state.ask(rng) for _ in range(5000)])
    assert np.all(np.abs(draws.mean(axis=0) - mean0) < 0.02)


def test_tiny_sigma_collapses_to_mean():
    state = cma_init(5, mean0=np.ones(5), sigma0=1e-300)
    xs = state.ask(np.random.default_rng(0))
    assert np.all(xs == 1.0)


def test_ask_deterministic_given_rng():
    state = cma_init(6)
    a = state.ask(np.random.default_rng(77))
    b = state.ask(np.random.default_rng(77))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# tell mechanics
# ---------------------------------------------------------------------------


def test_equal_fitness_recombines_by_index():
    state = cma_init(3, sigma0=0.5, lam=6)
    rng = np.random.default_rng(300)
    xs = state.ask(rng)
    m_old = state.mean.copy()
    state.tell(xs, np.zeros(6))
    # stable tie-break selects candidates 0..mu-1 in order
    y = (xs[: state.mu] - m_old) / 0.5
    expected = m_old + 0.5 * (state.weights @ y)
    np.testing.assert_allclose(state.mean, expected, atol=1e-15)


def test_tell_rejects_mismatched_lengths():
    state = cma_init(3, lam=6)
    xs = state.ask(np.random.default_rng(0))
    with pytest.raises(ValueError, match="6 fitness"):
        state.tell(xs, np.zeros(5))
    with pytest.raises(ValueError, match="6 candidates"):
        state.tell(xs[:4], np.zeros(6))


def test_non_finite_fitness_treated_as_worst():
    xs = cma_init(3, lam=6).ask(np.random.default_rng(301))
    f_clean = np.array([5.0, 1.0, 4.0, 2.0, 3.0, 0.5])
    f_dirty = f_clean.copy()
    f_dirty[1] = np.nan
    f_dirty[5] = -np.inf
    # worst finite among the rest is 2.0, so nan/-inf act like 1.0 < everything
    a = cma_init(3, lam=6)
    b = cma_init(3, lam=6)
    a.tell(xs, f_dirty)
    manual = f_clean.copy()
    manual[1] = manual[5] = 2.0 - 1.0
    b.tell(xs, manual)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.cov, b.cov)
    assert a.sigma == b.sigma


def test_covariance_stays_symmetric_and_pd():
    state = cma_init(4, lam=8)
    rng = np.random.default_rng(302)
    for _ in range(60):
        xs = state.ask(rng)
        state.tell(xs, np.array([sphere_neg(x) for x in xs]))
        assert np.array_equal(state.cov, state.cov.T)
    lo, hi = state.eigenvalues()
    assert lo > 1e-14 * hi


def test_eigen_cache_matches_covariance_after_refresh():
    # tell ends by refreshing the eigensystem, so no other call needs to
    state = cma_init(5, lam=8)
    rng = np.random.default_rng(303)
    for _ in range(25):
        xs = state.ask(rng)
        state.tell(xs, np.array([rosenbrock(x) for x in xs]), maximize=False)
        rebuilt = (state._b * state._d**2) @ state._b.T
        assert np.linalg.norm(rebuilt - state.cov, "fro") < 1e-6


def test_eigenvalues_leave_the_state_unchanged():
    state = cma_init(5, lam=8)
    rng = np.random.default_rng(308)
    for _ in range(4):
        xs = state.ask(rng)
        state.tell(xs, np.array([sphere_neg(x) for x in xs]))
        before = state.to_dict()
        lo, hi = state.eigenvalues()
        assert state.to_dict() == before
        assert (lo, hi) == (min(state._d) ** 2, max(state._d) ** 2)


# ---------------------------------------------------------------------------
# Rank-based invariances
# ---------------------------------------------------------------------------


def test_monotone_transform_invariance():
    rng_master = np.random.default_rng(304)
    a = cma_init(4, sigma0=0.3, lam=8)
    b = cma_init(4, sigma0=0.3, lam=8)
    for step in range(15):
        seed = int(rng_master.integers(2**32))
        xs_a = a.ask(np.random.default_rng(seed))
        xs_b = b.ask(np.random.default_rng(seed))
        np.testing.assert_array_equal(xs_a, xs_b)
        fs = np.array([sphere_neg(x) for x in xs_a])
        a.tell(xs_a, fs)
        b.tell(xs_b, np.arctan(fs) * 3.0 + 7.0)  # strictly increasing map
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.cov, b.cov)
    assert a.sigma == b.sigma


def test_translation_equivariance():
    shift = np.array([3.0, -2.0, 0.5])
    a = cma_init(3, mean0=np.zeros(3), sigma0=0.4, lam=7)
    b = cma_init(3, mean0=shift, sigma0=0.4, lam=7)
    rng_master = np.random.default_rng(305)
    for step in range(20):
        seed = int(rng_master.integers(2**32))
        xs_a = a.ask(np.random.default_rng(seed))
        xs_b = b.ask(np.random.default_rng(seed))
        a.tell(xs_a, np.array([sphere_neg(x) for x in xs_a]))
        b.tell(xs_b, np.array([sphere_neg(x - shift) for x in xs_b]))
    np.testing.assert_allclose(b.mean, a.mean + shift, atol=1e-9)
    np.testing.assert_allclose(b.cov, a.cov, atol=1e-9)
    assert b.sigma == pytest.approx(a.sigma, rel=1e-9)


# ---------------------------------------------------------------------------
# Benchmark budgets
# ---------------------------------------------------------------------------


def test_sphere_12d_within_budget():
    bests = []
    for seed in range(10):
        state = cma_init(12, mean0=np.ones(12), sigma0=0.5)
        bests.append(run_maximize(sphere_neg, state, seed=1000 + seed, max_evals=6000))
    assert np.median(bests) > -1e-10


def test_rosenbrock_5d_within_budget():
    bests = []
    for seed in range(10):
        state = cma_init(5, mean0=np.zeros(5), sigma0=0.5)
        best = run_maximize(
            lambda x: -rosenbrock(x), state, seed=2000 + seed, max_evals=30000
        )
        bests.append(-best)
    assert np.median(bests) < 1e-6


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_is_exact():
    state = cma_init(4, sigma0=0.6, lam=9)
    rng = np.random.default_rng(306)
    for _ in range(12):
        xs = state.ask(rng)
        state.tell(xs, np.array([sphere_neg(x) for x in xs]))
    doc = json.loads(json.dumps(state.to_dict()))
    clone = CmaState.from_dict(doc)
    np.testing.assert_array_equal(clone.mean, state.mean)
    np.testing.assert_array_equal(clone.cov, state.cov)
    np.testing.assert_array_equal(clone.p_sigma, state.p_sigma)
    np.testing.assert_array_equal(clone.p_c, state.p_c)
    assert clone.sigma == state.sigma
    assert clone.generation == state.generation
    assert clone.evals == state.evals
    # identical continuation: same rng stream gives the same candidates
    follow = np.random.default_rng(307)
    follow2 = np.random.default_rng(307)
    np.testing.assert_array_equal(state.ask(follow), clone.ask(follow2))


def test_state_with_an_eigen_generation_loads_to_the_same_state():
    # states saved while the eigensystem was refreshed lazily also carry the
    # generation of its last refresh; loading ignores it
    state = cma_init(4, sigma0=0.6, lam=9)
    rng = np.random.default_rng(309)
    for _ in range(3):
        state.tell(state.ask(rng), rng.standard_normal(9))
    doc = json.loads(json.dumps(state.to_dict()))
    clone = CmaState.from_dict(dict(doc, eigen_gen=state.generation))
    assert clone.to_dict() == doc
    np.testing.assert_array_equal(
        state.ask(np.random.default_rng(310)), clone.ask(np.random.default_rng(310))
    )


# ---------------------------------------------------------------------------
# Stopping rule
# ---------------------------------------------------------------------------


def test_stop_on_max_generations():
    state = cma_init(3)
    state.generation = 50
    assert stop_reason(state, [0.1] * 50, max_generations=50) == "max-generations"
    assert stop_reason(state, [0.1] * 50, max_generations=51) != "max-generations"


def test_stop_on_stagnation():
    state = cma_init(3)
    state.generation = 20
    flat = [0.5] + [0.5 + 1e-5] * 10
    assert stop_reason(state, flat, max_generations=100) == "stagnation"
    rising = list(np.linspace(0.0, 1.0, 11))
    assert stop_reason(state, rising, max_generations=100) is None


def test_stop_on_sigma_collapse():
    state = cma_init(3)
    state.sigma = 1e-13
    assert stop_reason(state, [0.0], max_generations=100) == "sigma-collapse"


def test_short_history_does_not_stagnate():
    state = cma_init(3)
    assert stop_reason(state, [0.5, 0.5], max_generations=100) is None
