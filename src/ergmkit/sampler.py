"""Simulation of graphs from a model: exact draws or Metropolis-Hastings.

``simulate`` is the entry point. A dyad-independent model (no gwdegree
term) makes every dyad an independent Bernoulli(sigmoid(delta_ij . theta))
variable, so its graphs are drawn exactly: the tie probability is
computed once per level-pair block of the compiled model and gathered per
dyad, and each retained sample takes one run of D uniforms from the PCG64
stream seeded from SamplerConfig.seed and keeps the dyads whose uniform
falls below their probability. Samples are independent. Models with
gwdegree run the Metropolis-Hastings chain of ``sample``, which is also
the kernel of MC-MLE; ``burn_in``/``thin`` apply only to MC-MLE and
gwdegree models.

The MH kernel, the proposal loop of ``sample`` and the only place the
toggle rule runs, proposes a uniformly random dyad toggle and accepts with
probability min(1, exp(s * theta . delta)), where delta is the dyad's
change statistic and s is +1 for adding the edge, -1 for removing it. This
is the conditional log-odds form, so detailed balance with respect to the
model distribution holds by construction. The chain keeps the sufficient
statistic the rest of the package uses, as running sums that accepted
toggles move (as in ergm): each dyad knows only its level-pair block,
whose log-odds theta . delta without gwdegree is computed once; a toggle
moves the block's tie count, the two degrees and the gwdegree statistic;
a retained sample's statistics are the tie counts times the compiled
table, with the gwdegree entry set.

Randomness comes from numpy's PCG64 stream seeded from SamplerConfig.seed;
proposal dyads and acceptance uniforms are drawn in blocks, in that order,
which fixes the bit stream for golden tests. One chain is single threaded;
run independent chains with distinct seeds for parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import AttributeTable, Graph
from .logistic import sigmoid
from .model import CompiledModel, ModelSpec, dyad_endpoints, dyad_index

_BLOCK = 1 << 15


@dataclass(frozen=True)
class SamplerConfig:
    """Chain controls. burn_in / thin of None mean 10*n^2 and n^2 proposals."""

    burn_in: int | None = None
    thin: int | None = None
    sample_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.burn_in is not None and self.burn_in < 0:
            raise ConfigError("burn_in must be >= 0")
        if self.thin is not None and self.thin < 1:
            raise ConfigError("thin must be >= 1")
        if self.sample_count < 1:
            raise ConfigError("sample_count must be >= 1")

    def resolve(self, n: int) -> tuple[int, int]:
        burn = 10 * n * n if self.burn_in is None else self.burn_in
        thin = max(1, n * n) if self.thin is None else self.thin
        return burn, thin

    def proposals(self, n: int) -> int:
        """MH proposals one chain makes: burn-in plus thinning per sample."""
        burn, thin = self.resolve(n)
        return burn + thin * self.sample_count


class ChainState:
    """Private mutable chain state on the compiled model's level-pair blocks.

    Per dyad: its ``(i, j, block)`` entry and its bit. Per block: the
    log-odds ``eta = table . theta`` of every term but gwdegree, and the
    tie count. Per node: the degree. With gwdegree, also its running
    statistic, which accepted toggles move. The statistics are the tie
    counts times the table with the gwdegree entry set, the same sufficient
    statistic as ``CompiledModel.statistics``.
    """

    def __init__(self, g0: Graph, theta: np.ndarray, model: ModelSpec, attrs: AttributeTable):
        cm = CompiledModel(model, attrs, g0.n)
        theta = _checked_theta(theta, cm)
        self.n = g0.n
        self.cm = cm
        iu, ju = np.triu_indices(g0.n, k=1)
        self.dyads = list(zip(iu.tolist(), ju.tolist(), cm.dyad_blocks().tolist()))
        self.D = len(self.dyads)
        self.bits = [0] * self.D
        for i, j in g0.edges:
            self.bits[dyad_index(g0.n, i, j)] = 1
        self.deg = [int(d) for d in g0.degrees()]
        self.eta = (cm.table @ theta).tolist()
        self.ties = cm.block_ties(g0).tolist()
        self.gw_offset = cm._gw_offset
        if self.gw_offset is not None:
            self.theta_gw = float(theta[self.gw_offset])
            self.wdiff = [float(v) for v in cm._wdiff]
            self.gw = float(cm.statistics(g0)[self.gw_offset])
        else:
            self.theta_gw = 0.0
            self.wdiff = None

    def statistics(self) -> np.ndarray:
        out = np.array(self.ties) @ self.cm.table
        if self.gw_offset is not None:
            out[self.gw_offset] = self.gw
        return out

    def graph(self) -> Graph:
        return Graph(self.n, [(i, j) for (i, j, _), bit in zip(self.dyads, self.bits) if bit])


def _checked_theta(theta: np.ndarray, cm: CompiledModel) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (cm.p,):
        raise ConfigError(
            f"theta has {theta.size} entries, the model needs {cm.p}: {list(cm.stat_names)}"
        )
    if not np.all(np.isfinite(theta)):
        raise ConfigError("theta must be finite")
    return theta


def _revalidated(cm: CompiledModel, g: Graph, stats: np.ndarray, tol: float) -> np.ndarray:
    """A full recompute of g's statistics, checked against ``stats``."""
    fresh = cm.statistics(g)
    drift = float(np.max(np.abs(fresh - stats))) if cm.p else 0.0
    if drift > tol:
        raise RuntimeError(f"incremental statistic drift {drift:g} exceeds {tol:g}")
    return fresh


def sample(
    g0: Graph,
    theta: np.ndarray,
    model: ModelSpec,
    attrs: AttributeTable,
    cfg: SamplerConfig,
    keep_graphs: bool = True,
) -> tuple[list[Graph], np.ndarray]:
    """Run one chain; return retained graphs and their statistic vectors.

    Retains a sample every ``thin`` proposals after ``burn_in`` proposals.
    Each proposal toggles a uniform dyad with the rule in the module
    docstring; an accepted toggle moves its block's tie count, the endpoint
    degrees and the running gwdegree statistic. The statistics of each
    retained sample are read off that state, and those of the last one are
    checked against a full recompute of its graph. Fully determined by
    inputs + seed.
    """
    state = ChainState(g0, theta, model, attrs)
    burn, thin = cfg.resolve(g0.n)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    total = cfg.proposals(g0.n)
    retained_stats = np.empty((cfg.sample_count, state.cm.p))
    graphs: list[Graph] = []
    dyads, bits, deg, eta, ties = state.dyads, state.bits, state.deg, state.eta, state.ties
    wdiff, theta_gw, exp = state.wdiff, state.theta_gw, math.exp
    done = 0
    next_retain = burn + thin
    kept = 0
    while done < total:
        block = min(_BLOCK, total - done)
        ds = rng.integers(0, state.D, size=block).tolist()
        us = rng.random(block).tolist()
        for d, u in zip(ds, us):
            i, j, b = dyads[d]
            bit = bits[d]
            sign = 1 - 2 * bit
            # gwdegree change at the endpoint degrees with the dyad absent
            gw = wdiff[deg[i] - bit] + wdiff[deg[j] - bit] if wdiff is not None else 0.0
            logodds = sign * (eta[b] + theta_gw * gw)
            if not (logodds < 0.0 and u >= exp(logodds)):
                bits[d] = 1 - bit
                ties[b] += sign
                deg[i] += sign
                deg[j] += sign
                if wdiff is not None:
                    state.gw += sign * gw
            done += 1
            if done == next_retain:
                retained_stats[kept] = state.statistics()
                if keep_graphs:
                    graphs.append(state.graph())
                kept += 1
                next_retain += thin
    _revalidated(state.cm, state.graph(), state.statistics(), 1e-9)
    return graphs, retained_stats


def simulate(
    g0: Graph,
    theta: np.ndarray,
    model: ModelSpec,
    attrs: AttributeTable,
    cfg: SamplerConfig,
    keep_graphs: bool = True,
) -> tuple[list[Graph], np.ndarray]:
    """Draw ``cfg.sample_count`` graphs at theta; same contract as ``sample``.

    Dyad-independent models are drawn exactly and ``g0`` only fixes the
    node count; other models run ``sample`` from ``g0``. The statistics of
    each draw are its block tie counts times the model's table, checked
    against a full recompute on the last draw. Fully determined by inputs
    + seed.
    """
    if not model.dyad_independent:
        return sample(g0, theta, model, attrs, cfg, keep_graphs)
    cm = CompiledModel(model, attrs, g0.n)
    theta = _checked_theta(theta, cm)
    blocks = cm.dyad_blocks()
    prob = sigmoid(cm.table @ theta)[blocks]
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    retained_stats = np.empty((cfg.sample_count, cm.p))
    graphs: list[Graph] = []
    for k in range(cfg.sample_count):
        on = np.flatnonzero(rng.random(len(prob)) < prob)
        retained_stats[k] = np.bincount(blocks[on], minlength=len(cm.table)) @ cm.table
        if keep_graphs:
            graphs.append(Graph(cm.n, dyad_endpoints(cm.n, on).tolist()))
    last = graphs[-1] if keep_graphs else Graph(cm.n, dyad_endpoints(cm.n, on).tolist())
    _revalidated(cm, last, retained_stats[-1], 1e-9)
    return graphs, retained_stats


def simulation_counters(model: ModelSpec, n: int, cfg: SamplerConfig) -> dict:
    """Which simulator ``simulate`` runs, its retained samples and MH proposals."""
    exact = model.dyad_independent
    return {
        "simulator": "exact" if exact else "metropolis",
        "samples": cfg.sample_count,
        "proposals": 0 if exact else cfg.proposals(n),
    }


def write_stats_trace(path, names: tuple[str, ...], stats: np.ndarray) -> None:
    """One CSV row per retained sample, for mixing diagnostics."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row in stats:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
