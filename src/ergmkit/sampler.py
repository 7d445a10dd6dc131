"""Simulation of graphs from a model: exact draws or Metropolis-Hastings.

``simulate`` is the entry point. A dyad-independent model (no gwdegree
term) makes every dyad an independent Bernoulli(sigmoid(delta_ij . theta))
variable, so its graphs are drawn exactly: the tie probability is
computed once per level-pair block of the compiled model and gathered per
dyad, and each retained sample takes one run of D uniforms from the PCG64
stream seeded from SamplerConfig.seed and keeps the dyads whose uniform
falls below their probability. Samples are independent, so MC-MLE on a
dyad-independent model uses i.i.d. exact draws too. Models with gwdegree
run the Metropolis-Hastings chain of ``sample``; ``burn_in``/``thin``
apply only to gwdegree models.

The MH kernel, the proposal loop of ``sample`` and the only place the
toggle rule runs, proposes a uniformly random dyad toggle and accepts with
probability min(1, exp(s * theta . delta)), where delta is the dyad's
change statistic and s is +1 for adding the edge, -1 for removing it. This
is the conditional log-odds form, so detailed balance with respect to the
model distribution holds by construction. The chain keeps the sufficient
statistic the rest of the package uses, as running sums that accepted
toggles move (as in ergm): each dyad knows only its level-pair block,
whose log-odds theta . delta without gwdegree is computed once, and its
endpoints are decoded from its position when it is proposed; a toggle
moves the block's tie count, the two degrees and the gwdegree statistic;
a retained sample's statistics are the tie counts times the compiled
table, with the gwdegree entry set. A model without gwdegree runs the
same rule with zero gwdegree weights and parameter.

Randomness comes from numpy's PCG64 stream seeded from SamplerConfig.seed;
proposal dyads and acceptance uniforms are drawn in blocks, in that order,
which fixes the bit stream for golden tests. One chain is single threaded;
run independent chains with distinct seeds for parallelism.

Most proposals on a sparse graph are adds whose uniform is far above any
acceptance probability the add could have, whatever the degrees. Each
block of draws is screened in numpy first: per block, exp of an upper
bound on an add's log-odds (``ChainState.add_thresholds``) is a uniform at
or above which the rule rejects every add. A proposal runs the rule only
if its dyad is tied at the start of the block or some proposal of that
dyad in the block drew a uniform below the threshold. Every skipped
proposal is an add the rule rejects: its dyad was off at block start and
could only have been toggled on at an unskipped proposal of the same dyad.
So the unskipped proposals, run in order, give the same chain bit for bit,
and the stream, the acceptance rule and the statistics are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

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

    Per dyad, in lexicographic order: its block, in ``blocks``, and its
    bit, one byte of ``bits``, which ``tied`` views as a boolean array; a
    dyad's endpoints follow from its position (``dyad_endpoints``). Per
    block: the log-odds ``eta = table . theta`` of every term but
    gwdegree, and the tie count. Per node: the degree. The gwdegree weight
    differences ``wdiff``, its parameter ``theta_gw`` and its running
    statistic, which accepted toggles move, are all zero without gwdegree,
    so one toggle rule serves every model. The statistics are the tie
    counts times the table with the gwdegree entry set, the same
    sufficient statistic as ``CompiledModel.statistics``.
    """

    def __init__(self, g0: Graph, theta: np.ndarray, model: ModelSpec, attrs: AttributeTable):
        cm = CompiledModel(model, attrs, g0.n)
        theta = _checked_theta(theta, cm)
        self.n = g0.n
        self.cm = cm
        self.blocks = cm.dyad_blocks()
        self.D = len(self.blocks)
        self.bits = bytearray(self.D)
        self.tied = np.frombuffer(self.bits, dtype=np.bool_)
        for i, j in g0.edges:
            self.bits[dyad_index(g0.n, i, j)] = 1
        self.deg = [int(d) for d in g0.degrees()]
        self.eta = (cm.table @ theta).tolist()
        self.ties = cm.block_ties(g0).tolist()
        self.gw_offset = cm._gw_offset
        self.theta_gw = 0.0 if self.gw_offset is None else float(theta[self.gw_offset])
        self.wdiff = cm._wdiff.tolist()
        self.gw = float(cm._w[g0.degrees()].sum())

    def statistics(self) -> np.ndarray:
        out = np.array(self.ties) @ self.cm.table
        if self.gw_offset is not None:
            out[self.gw_offset] = self.gw
        return out

    def graph(self) -> Graph:
        return Graph(self.n, dyad_endpoints(self.n, self.tied.nonzero()[0]).tolist())

    def add_thresholds(self) -> np.ndarray:
        """Per block, a uniform at or above which every add is rejected.

        An add's log-odds is ``eta[b] + theta_gw * gw`` with gw a sum of two
        ``wdiff`` entries, so it is at most ``L = eta[b] + theta_gw * (w + w)``
        with w the largest entry for theta_gw >= 0 and the smallest
        otherwise: rounded ``+`` and ``*`` are monotone. The rule rejects
        when the log-odds is negative and ``u >= exp(log-odds)``, so
        ``u >= exp(L)`` suffices when L < 0; the factor 1 + 1e-12 covers
        exp's sub-ulp error. ``fmin`` maps L >= 0, and a NaN L from
        overflowing terms, to a threshold above 1 that no uniform reaches.
        """
        w = max(self.wdiff) if self.theta_gw >= 0 else min(self.wdiff)
        bound = np.array(self.eta) + self.theta_gw * (w + w)
        return np.exp(np.fmin(bound, 0.0)) * (1 + 1e-12)


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

    Proposals that cannot change the chain are skipped unseen: an add of a
    dyad that is off at the start of its block of draws, when no proposal
    of that dyad in the block drew a uniform below its block's threshold.
    The rule rejects each of them, so the retained statistics and graphs
    are those of running every proposal.
    """
    state = ChainState(g0, theta, model, attrs)
    burn, thin = cfg.resolve(g0.n)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    total = cfg.proposals(g0.n)
    retained_stats = np.empty((cfg.sample_count, state.cm.p))
    graphs: list[Graph] = []
    blocks, bits, deg, eta, ties = state.blocks, state.bits, state.deg, state.eta, state.ties
    wdiff, theta_gw, exp = state.wdiff, state.theta_gw, math.exp
    threshold = state.add_thresholds()[blocks]
    marked = np.zeros(state.D, dtype=np.bool_)
    done = 0
    next_retain = burn + thin
    kept = 0
    while done < total:
        block = min(_BLOCK, total - done)
        ds = rng.integers(0, state.D, size=block)
        us = rng.random(block)
        # Only a dyad tied at block start, or one with some uniform below its
        # threshold in this block, can change in this block: every other
        # proposal is an add the rule rejects, so it is skipped.
        hit = ds[us < threshold[ds]]
        marked[hit] = True
        visit = np.flatnonzero(marked[ds] | state.tied[ds])
        marked[hit] = False
        # retentions fall after these local proposal counts; segment k runs
        # the visited proposals made before retention k, the last one the rest
        retain_at = np.arange(next_retain - done, block + 1, thin)
        retains = len(retain_at)
        sizes = np.diff(np.searchsorted(visit, retain_at), prepend=0, append=len(visit)).tolist()
        dv = ds[visit]
        i_v, j_v = dyad_endpoints(state.n, dv).T.tolist()
        proposals = zip(dv.tolist(), i_v, j_v, blocks[dv].tolist(), us[visit].tolist())
        for k, size in enumerate(sizes):
            for d, i, j, b, u in islice(proposals, size):
                bit = bits[d]
                sign = 1 - 2 * bit
                # gwdegree change at the endpoint degrees with the dyad absent
                gw = wdiff[deg[i] - bit] + wdiff[deg[j] - bit]
                logodds = sign * (eta[b] + theta_gw * gw)
                if not (logodds < 0.0 and u >= exp(logodds)):
                    bits[d] = 1 - bit
                    ties[b] += sign
                    deg[i] += sign
                    deg[j] += sign
                    state.gw += sign * gw
            if k < retains:
                retained_stats[kept] = state.statistics()
                if keep_graphs:
                    graphs.append(state.graph())
                kept += 1
        next_retain += thin * retains
        done += block
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
