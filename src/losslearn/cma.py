"""Standard (mu/mu_w, lambda) CMA-ES.

Rank-based selection with log-rank recombination weights, cumulative
step-size adaptation, and the combined rank-one / rank-mu covariance update.
The eigendecomposition of the covariance is part of the state: ``tell`` ends
by refreshing it, so ``ask`` and ``eigenvalues`` only read it. A lazy refresh
saves its O(n^3) cost only at large n; the polynomial family has n <= 47 up
to order 9. The strategy owns no random stream: ``ask`` takes an external
numpy Generator, which keeps checkpoints pure state.
"""

import math

import numpy as np

MIN_COND = 1e-14  # relative eigenvalue floor before a ridge repair kicks in
STAGNATION_WINDOW = 10  # generations over which the best fitness must improve
STAGNATION_TOL = 1e-4  # by at least this much
SIGMA_FLOOR = 1e-12  # step size times the largest axis below which search has collapsed


def default_population(n):
    return 4 + int(3 * math.log(n))


class CmaState:
    def __init__(self, n, mean0=None, sigma0=0.5, lam=None):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        self.n = int(n)
        self.mean = (
            np.zeros(n) if mean0 is None else np.array(mean0, dtype=float).copy()
        )
        if self.mean.shape != (n,):
            raise ValueError(f"mean0 must have length {n}")
        if not np.isfinite(self.mean).all():
            raise ValueError("mean0 must be finite")
        self.sigma = float(sigma0)
        self.lam = default_population(n) if lam is None else int(lam)
        if self.lam < 2:
            raise ValueError("population size must be at least 2")
        self.mu = self.lam // 2

        raw = np.log((self.lam + 1) / 2.0) - np.log(np.arange(1, self.mu + 1))
        self.weights = raw / raw.sum()
        self.mu_eff = 1.0 / np.sum(self.weights**2)

        self.c_sigma = (self.mu_eff + 2.0) / (n + self.mu_eff + 5.0)
        self.d_sigma = (
            1.0
            + 2.0 * max(0.0, math.sqrt((self.mu_eff - 1.0) / (n + 1.0)) - 1.0)
            + self.c_sigma
        )
        self.c_c = (4.0 + self.mu_eff / n) / (n + 4.0 + 2.0 * self.mu_eff / n)
        self.c_1 = 2.0 / ((n + 1.3) ** 2 + self.mu_eff)
        self.c_mu = min(
            1.0 - self.c_1,
            2.0 * (self.mu_eff - 2.0 + 1.0 / self.mu_eff) / ((n + 2.0) ** 2 + self.mu_eff),
        )
        self.chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))

        self.cov = np.eye(n)
        self.p_sigma = np.zeros(n)
        self.p_c = np.zeros(n)
        self.generation = 0
        self.evals = 0
        self._refresh_eigen()

    # -- eigensystem ---------------------------------------------------

    def _refresh_eigen(self):
        vals, vecs = np.linalg.eigh(self.cov)
        top = vals[-1]
        if top <= 0.0:
            # covariance collapsed entirely; fall back to a tiny sphere
            ridge = MIN_COND - top
            self.cov += ridge * np.eye(self.n)
            vals = vals + ridge
            top = vals[-1]
        elif vals[0] < MIN_COND * top:
            ridge = 2.0 * MIN_COND * top - vals[0]
            self.cov += ridge * np.eye(self.n)
            vals = vals + ridge
        self._d = np.sqrt(np.maximum(vals, 0.0))
        self._b = vecs

    def eigenvalues(self):
        """(min, max) eigenvalue of the current covariance."""
        return float(self._d[0] ** 2), float(self._d[-1] ** 2)

    # -- ask / tell ----------------------------------------------------

    def ask(self, rng):
        """Sample lam candidates m + sigma * B D z."""
        z = rng.standard_normal((self.lam, self.n))
        return self.mean + self.sigma * (z * self._d) @ self._b.T

    def tell(self, candidates, fitnesses, maximize=True):
        candidates = np.asarray(candidates, dtype=float)
        fitnesses = np.asarray(fitnesses, dtype=float)
        if candidates.shape != (self.lam, self.n):
            raise ValueError(f"expected {self.lam} candidates of dimension {self.n}")
        if fitnesses.shape != (self.lam,):
            raise ValueError(f"expected {self.lam} fitness values")
        fitnesses = _replace_non_finite(fitnesses, maximize)
        key = -fitnesses if maximize else fitnesses
        order = np.argsort(key, kind="stable")  # ties fall back to index order
        selected = candidates[order[: self.mu]]

        inv_sqrt = (self._b / self._d) @ self._b.T  # C^(-1/2)
        y = (selected - self.mean) / self.sigma
        y_w = self.weights @ y
        self.mean = self.mean + self.sigma * y_w

        gen_next = self.generation + 1
        self.p_sigma = (1.0 - self.c_sigma) * self.p_sigma + math.sqrt(
            self.c_sigma * (2.0 - self.c_sigma) * self.mu_eff
        ) * (inv_sqrt @ y_w)
        decay = 1.0 - (1.0 - self.c_sigma) ** (2 * gen_next)
        hsig = float(
            np.linalg.norm(self.p_sigma) / math.sqrt(decay) / self.chi_n
            < 1.4 + 2.0 / (self.n + 1.0)
        )
        self.p_c = (1.0 - self.c_c) * self.p_c + hsig * math.sqrt(
            self.c_c * (2.0 - self.c_c) * self.mu_eff
        ) * y_w

        rank_one = np.outer(self.p_c, self.p_c)
        rank_mu = (self.weights[:, None] * y).T @ y
        discount = 1.0 - self.c_1 - self.c_mu
        stall = (1.0 - hsig) * self.c_c * (2.0 - self.c_c)  # hsig=0 compensation
        self.cov = (
            discount * self.cov
            + self.c_1 * (rank_one + stall * self.cov)
            + self.c_mu * rank_mu
        )
        self.cov = (self.cov + self.cov.T) / 2.0  # exact symmetry

        self.sigma = self.sigma * math.exp(
            (self.c_sigma / self.d_sigma)
            * (np.linalg.norm(self.p_sigma) / self.chi_n - 1.0)
        )
        self.generation = gen_next
        self.evals += self.lam
        self._refresh_eigen()
        return self

    # -- checkpointing ---------------------------------------------------

    def to_dict(self):
        return {
            "n": self.n,
            "lam": self.lam,
            "mean": self.mean.tolist(),
            "sigma": self.sigma,
            "cov": self.cov.tolist(),
            "p_sigma": self.p_sigma.tolist(),
            "p_c": self.p_c.tolist(),
            "generation": self.generation,
            "evals": self.evals,
            # stored, not recomputed on load: a ridge repair shifts the old
            # eigenvalues and keeps the old eigenvectors
            "eigen_b": self._b.tolist(),
            "eigen_d": self._d.tolist(),
        }

    @classmethod
    def from_dict(cls, doc):
        state = cls(doc["n"], mean0=doc["mean"], sigma0=doc["sigma"], lam=doc["lam"])
        state.cov = np.array(doc["cov"], dtype=float)
        state.p_sigma = np.array(doc["p_sigma"], dtype=float)
        state.p_c = np.array(doc["p_c"], dtype=float)
        state.generation = int(doc["generation"])
        state.evals = int(doc["evals"])
        state._b = np.array(doc["eigen_b"], dtype=float)
        state._d = np.array(doc["eigen_d"], dtype=float)
        return state


def _replace_non_finite(fitnesses, maximize):
    bad = ~np.isfinite(fitnesses)
    if not bad.any():
        return fitnesses
    fitnesses = fitnesses.copy()
    good = fitnesses[~bad]
    if len(good) == 0:
        fitnesses[:] = 0.0
    elif maximize:
        fitnesses[bad] = good.min() - 1.0
    else:
        fitnesses[bad] = good.max() + 1.0
    return fitnesses


def stop_reason(state, best_fitness, max_generations):
    """Why the search should stop now, or None to keep going.

    best_fitness is the per-generation best fitness sequence so far
    (maximization orientation). The stagnation and sigma-collapse thresholds
    are the module constants STAGNATION_WINDOW, STAGNATION_TOL and SIGMA_FLOOR.
    """
    if state.generation >= max_generations:
        return "max-generations"
    if len(best_fitness) > STAGNATION_WINDOW:
        window = best_fitness[-(STAGNATION_WINDOW + 1) :]
        if max(window) - window[0] < STAGNATION_TOL:
            return "stagnation"
    if state.sigma * math.sqrt(float(np.max(np.diag(state.cov)))) < SIGMA_FLOOR:
        return "sigma-collapse"
    return None
