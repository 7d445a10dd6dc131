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

A draw is the sorted int64 array of its tied dyads' lexicographic
positions (``dyad_index``, ``exact.graph_bitmask``), which
``dyad_endpoints`` decodes; no ``Graph`` is built per draw.

Randomness comes from numpy's PCG64 stream seeded from SamplerConfig.seed;
proposal dyads and acceptance uniforms are drawn in blocks, in that order,
which fixes the bit stream for golden tests. One chain is single threaded;
run independent chains with distinct seeds for parallelism.

Most proposals on a sparse graph are adds whose uniform is far above any
acceptance probability the add could have, whatever the degrees. Per block
of the compiled model, ``ChainState.add_thresholds`` gives a threshold
t_b = exp(min(L_b, 0)) * (1 + 1e-12), where L_b bounds the log-odds
``eta[b] + theta_gw * gw`` of every dyad of the block from above, also in
rounded arithmetic: the rounded ``+`` and ``*`` are monotone. Call a
proposal whose uniform is at or above its block's threshold a miss. A miss
always leaves its dyad off. If the dyad is off, the miss is an add whose
acceptance probability is at most exp(L_b) <= u, and the rule rejects it.
If the dyad is on, u < 1 puts t_b below 1, so L_b < 0, the removal's
log-odds is at least -L_b > 0, and the rule accepts it. So within a block
of draws only three kinds of proposal can change the chain: a hit (a
uniform below the threshold), the block's first proposal of a dyad that
was tied at the start of the block, and the next proposal of a dyad after
one of its hits. Every other proposal is a miss of a dyad that the
previous miss of that dyad in the block left off, or that was off at the
start of the block, and so is a rejected add. ``_screen`` picks exactly
those three kinds in numpy, and ``sample`` runs them in order, so the
chain, its draws, its statistics and the PCG64 stream are those of running
every proposal, bit for bit.
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
        So a threshold a uniform can reach has L < 0, and there a removal's
        log-odds, the add's negated, is positive: the rule accepts it.
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


def _revalidated(cm: CompiledModel, draw: np.ndarray, stats: np.ndarray, tol: float) -> np.ndarray:
    """A full recompute of the statistics of a draw, checked against ``stats``."""
    fresh = cm.statistics(Graph(cm.n, dyad_endpoints(cm.n, draw).tolist()))
    drift = float(np.max(np.abs(fresh - stats))) if cm.p else 0.0
    if drift > tol:
        raise RuntimeError(f"incremental statistic drift {drift:g} exceeds {tol:g}")
    return fresh


def _screen(
    ds: np.ndarray, us: np.ndarray, flags: np.ndarray, blocks: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Sorted positions of the proposals of a block of draws that can change the chain.

    ``ds`` and ``us`` are the block's proposal dyads and uniforms, ``flags``
    holds one byte per dyad whose bit 0 is its tie at the start of the block,
    ``blocks`` the dyads' level-pair blocks and ``thresholds`` the per-block
    ``ChainState.add_thresholds``. A position is kept if it is a hit (its
    uniform is below its block's threshold), the block's first proposal of a
    dyad tied at the start, or the next proposal of a dyad after a hit. Bit 1
    of ``flags`` marks the dyads with a hit while their proposals are
    gathered and is cleared again, so ``flags`` is left as it was given.
    """
    low = np.flatnonzero(us < thresholds.max())
    hit = low[us[low] < thresholds[blocks[ds[low]]]]
    marked = ds[hit]
    flags[marked] |= 2
    seen = flags[ds]
    flags[marked] &= 1
    cand = np.flatnonzero(seen != 0)
    # (dyad, position) keys order the candidates by dyad, by position within one
    shift = len(ds).bit_length()
    key = np.sort(ds[cand] << shift | cand)
    dyad, at = key >> shift, key & ((1 << shift) - 1)
    hits = us[at] < thresholds[blocks[dyad]]
    first = np.ones(len(at), dtype=np.bool_)
    first[1:] = dyad[1:] != dyad[:-1]
    keep = hits | (first & ((seen[at] & 1) == 1))
    keep[1:] |= hits[:-1] & ~first[1:]
    return np.sort(at[keep])


def sample(
    g0: Graph,
    theta: np.ndarray,
    model: ModelSpec,
    attrs: AttributeTable,
    cfg: SamplerConfig,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Run one chain; return the retained draws and their statistic vectors.

    Retains a sample every ``thin`` proposals after ``burn_in`` proposals.
    Each proposal toggles a uniform dyad with the rule in the module
    docstring; an accepted toggle moves its block's tie count, the endpoint
    degrees and the running gwdegree statistic. The statistics of each
    retained sample are read off that state, and those of the last one are
    checked against a full recompute of its graph. A draw is the sorted
    int64 array of its tied dyads' lexicographic positions. Fully
    determined by inputs + seed.

    Only the proposals ``_screen`` keeps run the rule; every other one is
    an add the rule rejects, so the retained statistics and draws are those
    of running every proposal.
    """
    state = ChainState(g0, theta, model, attrs)
    burn, thin = cfg.resolve(g0.n)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    total = cfg.proposals(g0.n)
    retained_stats = np.empty((cfg.sample_count, state.cm.p))
    draws: list[np.ndarray] = []
    n, blocks, bits, deg, eta, ties = state.n, state.blocks, state.bits, state.deg, state.eta, state.ties
    wdiff, theta_gw, gw_stat, exp = state.wdiff, state.theta_gw, state.gw, math.exp
    flags = np.frombuffer(bits, dtype=np.uint8)
    thresholds = state.add_thresholds()
    done = 0
    next_retain = burn + thin
    kept = 0
    while done < total:
        block = min(_BLOCK, total - done)
        ds = rng.integers(0, state.D, size=block)
        us = rng.random(block)
        at = _screen(ds, us, flags, blocks, thresholds)
        dv = ds[at]
        i_v, j_v = dyad_endpoints(n, dv).T.tolist()
        proposals = zip(dv.tolist(), i_v, j_v, blocks[dv].tolist(), us[at].tolist())
        # the kept proposals made before each retention in this block, then all
        ends = []
        if next_retain - done <= block:
            ends = np.searchsorted(at, np.arange(next_retain - done, block + 1, thin)).tolist()
        retains = len(ends)
        ends.append(len(at))
        ran = 0
        for k, end in enumerate(ends):
            for d, i, j, b, u in islice(proposals, end - ran):
                # gw is the gwdegree change at the endpoint degrees without the
                # dyad. Adds and removals take separate branches, which spares a
                # sign per proposal; a removal's log-odds is the add's, negated.
                if bits[d]:
                    gw = wdiff[deg[i] - 1] + wdiff[deg[j] - 1]
                    logodds = -(eta[b] + theta_gw * gw)
                    if not (logodds < 0.0 and u >= exp(logodds)):
                        bits[d] = 0
                        ties[b] -= 1
                        deg[i] -= 1
                        deg[j] -= 1
                        gw_stat -= gw
                else:
                    gw = wdiff[deg[i]] + wdiff[deg[j]]
                    logodds = eta[b] + theta_gw * gw
                    if not (logodds < 0.0 and u >= exp(logodds)):
                        bits[d] = 1
                        ties[b] += 1
                        deg[i] += 1
                        deg[j] += 1
                        gw_stat += gw
            ran = end
            if k < retains:
                state.gw = gw_stat
                retained_stats[kept] = state.statistics()
                draws.append(state.tied.nonzero()[0])
                kept += 1
        next_retain += thin * retains
        done += block
    _revalidated(state.cm, draws[-1], retained_stats[-1], 1e-9)
    return draws, retained_stats


def simulate(
    g0: Graph,
    theta: np.ndarray,
    model: ModelSpec,
    attrs: AttributeTable,
    cfg: SamplerConfig,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Draw ``cfg.sample_count`` graphs at theta; same contract as ``sample``.

    Dyad-independent models are drawn exactly and ``g0`` only fixes the
    node count; other models run ``sample`` from ``g0``. The statistics of
    each draw are its block tie counts times the model's table, checked
    against a full recompute on the last draw. Fully determined by inputs
    + seed.
    """
    if not model.dyad_independent:
        return sample(g0, theta, model, attrs, cfg)
    cm = CompiledModel(model, attrs, g0.n)
    theta = _checked_theta(theta, cm)
    blocks = cm.dyad_blocks()
    prob = sigmoid(cm.table @ theta)[blocks]
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    retained_stats = np.empty((cfg.sample_count, cm.p))
    draws: list[np.ndarray] = []
    for k in range(cfg.sample_count):
        on = np.flatnonzero(rng.random(len(prob)) < prob)
        retained_stats[k] = np.bincount(blocks[on], minlength=len(cm.table)) @ cm.table
        draws.append(on)
    _revalidated(cm, on, retained_stats[-1], 1e-9)
    return draws, retained_stats


def simulation_counters(model: ModelSpec, n: int, cfg: SamplerConfig) -> dict:
    """Which simulator ``simulate`` runs, its retained samples and MH proposals."""
    exact = model.dyad_independent
    return {
        "simulator": "exact" if exact else "metropolis",
        "samples": cfg.sample_count,
        "proposals": 0 if exact else cfg.proposals(n),
    }
