"""Unpenalized logistic regression by iteratively reweighted least squares.

Rows are grouped: row r holds y_r successes out of trials_r Bernoulli
trials that share the covariates X_r (trials default to 1, one Bernoulli
row each). The pseudo-likelihood fitter passes the grouped dyad design
(one row per pair of node classes, and per tie state with gwdegree, its
dyad count as the trials and its tie count as y); the propensity model
passes one row per node. Grouping changes no estimate:
the log-likelihood, score and information are the per-trial sums.
Convergence is on the score: max |X'(y - trials * mu)| <= 1e-8. The
reported covariance is the inverse observed information X' W X at the
optimum, W = trials * mu * (1 - mu).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonConvergence, RankDeficient, Separation

_ETA_CLIP = 35.0  # sigmoid saturates to machine precision well before this
_TOL = 1e-8
_MAX_ITER = 50


@dataclass(frozen=True)
class LogisticFit:
    beta: np.ndarray
    covariance: np.ndarray
    iterations: int
    score_norm: float


def sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta, dtype=np.float64)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def collinear_terms(X: np.ndarray, names: list[str], count: float | None = None) -> list[str]:
    """Sorted names of the columns in X's numerical null space; empty at full rank.

    Columns are scaled to unit maximum first. The tolerance is the largest
    singular value times max(count, columns) times machine epsilon, with
    ``count`` the number of observations the rows stand for (default: the
    row count).
    """
    rows, p = X.shape
    # a small independent column (gwdegree at high degrees) would tilt the
    # computed null space onto its name; scaling keeps the involved columns
    X = X / np.abs(X).max(axis=0, initial=np.finfo(float).tiny)  # zero columns stay zero
    if rows < p:
        X = np.vstack([X, np.zeros((p - rows, p))])  # X'X, so the null space, is unchanged
    _, s, vt = np.linalg.svd(X, full_matrices=False)
    count = rows if count is None else count
    tol = s[0] * max(count, p) * np.finfo(float).eps if len(s) else 0.0
    return sorted(
        {
            names[k]
            for row in vt[s <= tol]
            for k in np.flatnonzero(np.abs(row) > 1e-8)
        }
    )


def _check_rank(X: np.ndarray, trials: np.ndarray, names: list[str]) -> None:
    # sqrt(trials)-scaled rows have the Gram matrix, so the singular values,
    # of the design with every trial as its own row
    count = float(trials.sum())
    if count < X.shape[1]:
        raise RankDeficient("fewer observations than model terms")
    involved = collinear_terms(X * np.sqrt(trials)[:, None], names, count)
    if involved:
        raise RankDeficient(f"collinear terms: {involved}")


def _check_separation(
    X: np.ndarray, y: np.ndarray, trials: np.ndarray, names: list[str]
) -> None:
    ones = y > 0  # rows holding a success (tie)
    zeros = trials - y > 0  # rows holding a failure (non-tie)
    if not ones.any() or not zeros.any():
        label = "non-ties" if zeros.any() else "ties"
        raise Separation(f"every dyad has the same outcome ({label}); no finite estimate")
    for k in range(X.shape[1]):
        col = X[:, k]
        hi0, lo0 = col[zeros].max(), col[zeros].min()
        hi1, lo1 = col[ones].max(), col[ones].min()
        # complete one-column separation only; IRLS can converge on the flat
        # ridge of quasi-separated data, which fit_mple catches from its
        # saturated fitted probabilities
        if hi0 < lo1 or hi1 < lo0:
            raise Separation(f"term {names[k]!r} perfectly predicts tie status")


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    names: list[str] | None = None,
    trials: np.ndarray | None = None,
) -> LogisticFit:
    """Fit y successes out of ``trials`` (default 1 per row) on the rows of X."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    trials = np.ones(len(y)) if trials is None else np.asarray(trials, dtype=np.float64)
    if X.shape[1] == 0:
        raise ConfigError("the model has no statistics to fit")
    names = names or [f"x{k}" for k in range(X.shape[1])]
    _check_rank(X, trials, names)
    _check_separation(X, y, trials, names)
    beta = np.zeros(X.shape[1])
    score_norm = np.inf
    converged = False
    for it in range(1, _MAX_ITER + 1):
        eta = np.clip(X @ beta, -_ETA_CLIP, _ETA_CLIP)
        mu = sigmoid(eta)
        score = X.T @ (y - trials * mu)
        score_norm = float(np.max(np.abs(score)))
        w = trials * mu * (1.0 - mu)
        info = X.T @ (X * w[:, None])
        if converged:
            return LogisticFit(beta, np.linalg.inv(info), it, score_norm)
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            raise Separation(
                "information matrix singular during IRLS; estimates diverging"
            ) from None
        beta = beta + step
        if float(np.max(np.abs(beta))) > 30.0:
            # coefficients this large mean fitted probabilities are 0/1 to
            # machine precision: quasi-separation the 1D screen cannot see
            worst = names[int(np.argmax(np.abs(beta)))]
            raise Separation(f"estimates diverging; term {worst!r} separates the data")
        # Newton is quadratic, so one extra step past the criterion leaves
        # the score at machine precision before reporting
        converged = score_norm <= _TOL
    raise NonConvergence(f"IRLS did not converge in {_MAX_ITER} iterations")
