"""Exact brute-force reference computations on tiny graphs.

Enumerates every edge set over the n*(n-1)/2 dyads (hard cap n = 6, i.e.
32768 graphs) and works in log space throughout, so parameter magnitudes
near separation do not overflow. Primarily test support; also backs the
CLI verify subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HullBoundary, NonConvergence, TooLarge
from .graph import AttributeTable, Graph
from .model import CompiledModel, ModelSpec, dyad_endpoints, dyad_index

MAX_EXACT_NODES = 6
_MLE_TOL = 1e-10
_MLE_MAX_ITER = 200


def enumerate_graphs(n: int) -> list[Graph]:
    """All simple graphs on n labeled nodes, ordered by edge-set bitmask."""
    if n > MAX_EXACT_NODES:
        raise TooLarge(f"exact enumeration capped at n = {MAX_EXACT_NODES}")
    D = n * (n - 1) // 2
    dyads = dyad_endpoints(n, np.arange(D))
    out = []
    for mask in range(1 << D):
        edges = [tuple(dyads[d]) for d in range(D) if mask >> d & 1]
        out.append(Graph(n, edges))
    return out


def graph_bitmask(g: Graph) -> int:
    """Edge-set bitmask of a graph, bit d = dyad d in lexicographic order."""
    mask = 0
    for i, j in g.edges:
        mask |= 1 << dyad_index(g.n, i, j)
    return mask


def stat_table(n: int, attrs: AttributeTable, model: ModelSpec) -> np.ndarray:
    """Statistic vectors for every graph, row index = edge-set bitmask."""
    cm = CompiledModel(model, attrs, n)
    graphs = enumerate_graphs(n)
    G = np.empty((len(graphs), cm.p))
    for k, g in enumerate(graphs):
        G[k] = cm.statistics(g)
    return G


@dataclass(frozen=True)
class ExactDistribution:
    """Normalized probabilities over all graphs of a fixed size.

    ``log_probs[mask]`` is the log probability of the graph with that
    edge-set bitmask; ``log_k`` is the log normalizing constant.
    """

    n: int
    log_probs: np.ndarray
    log_k: float
    stats: np.ndarray

    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_probs)


def _log_normalize(unnorm: np.ndarray) -> tuple[np.ndarray, float]:
    m = float(np.max(unnorm))
    log_k = m + float(np.log(np.sum(np.exp(unnorm - m))))
    return unnorm - log_k, log_k


def exact_distribution(
    n: int, attrs: AttributeTable, model: ModelSpec, theta: np.ndarray
) -> ExactDistribution:
    """The model distribution by full enumeration: P(y) = exp(theta.g(y)) / k."""
    G = stat_table(n, attrs, model)
    theta = np.asarray(theta, dtype=np.float64)
    log_probs, log_k = _log_normalize(G @ theta)
    return ExactDistribution(n=n, log_probs=log_probs, log_k=log_k, stats=G)


def exact_expected_stats(dist: ExactDistribution) -> np.ndarray:
    """E[g(Y)] under the exact distribution."""
    return np.exp(dist.log_probs) @ dist.stats


def exact_log_likelihood(
    dist: ExactDistribution, g_obs_stats: np.ndarray, theta: np.ndarray
) -> float:
    """log P_theta(y_obs) reusing the enumeration's statistic table."""
    unnorm = dist.stats @ np.asarray(theta, dtype=np.float64)
    _, log_k = _log_normalize(unnorm)
    return float(np.dot(theta, g_obs_stats) - log_k)


def exact_mle(
    g_obs: Graph,
    attrs: AttributeTable,
    model: ModelSpec,
) -> np.ndarray:
    """Newton maximization of the exact log likelihood.

    Gradient is g(y_obs) - E_theta[g]; Hessian is -Cov_theta[g]. Raises
    HullBoundary when an observed statistic attains its extreme value over
    all graphs, where the MLE diverges.
    """
    if g_obs.n > 5:
        raise TooLarge("exact_mle capped at n = 5")
    cm = CompiledModel(model, attrs, g_obs.n)
    G = stat_table(g_obs.n, attrs, model)
    obs = cm.statistics(g_obs)
    lo, hi = G.min(axis=0), G.max(axis=0)
    at_edge = (obs <= lo) | (obs >= hi)
    if at_edge.any():
        bad = [cm.stat_names[k] for k in np.flatnonzero(at_edge)]
        raise HullBoundary(
            f"observed statistic at its extreme value for {bad}; MLE diverges"
        )
    theta = np.zeros(cm.p)
    for _ in range(_MLE_MAX_ITER):
        log_probs, _ = _log_normalize(G @ theta)
        probs = np.exp(log_probs)
        mean = probs @ G
        centered = G - mean
        cov = (centered * probs[:, None]).T @ centered
        grad = obs - mean
        if float(np.linalg.norm(grad)) <= _MLE_TOL:
            return theta
        try:
            step = np.linalg.solve(cov, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(cov, grad, rcond=None)[0]
        # halve steps that overshoot the likelihood
        base = float(np.dot(theta, obs)) - _log_normalize(G @ theta)[1]
        scale = 1.0
        for _ in range(40):
            cand = theta + scale * step
            val = float(np.dot(cand, obs)) - _log_normalize(G @ cand)[1]
            if val >= base:
                break
            scale *= 0.5
        theta = theta + scale * step
        if float(np.linalg.norm(theta)) > 60:
            raise HullBoundary("Newton iterates diverging; observed statistics on hull boundary")
    raise NonConvergence(f"exact MLE did not converge in {_MLE_MAX_ITER} iterations")
