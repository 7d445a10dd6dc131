"""Model estimation and reporting.

Two estimators share the reporting contract: maximum pseudo-likelihood
(logistic regression of observed dyads on change statistics, fitted on
the dyads grouped by change row and tie state; exact for
dyad-independent models) and Monte Carlo maximum likelihood, which
iterates sampling at a reference parameter and maximizing the
importance-sampled log-likelihood ratio

    l(theta) - l(theta_t) = (theta - theta_t) . g(y_obs)
                            - log[(1/M) sum_m exp((theta - theta_t) . g(Y_m))].

Inference is Wald on the log-odds scale; odds ratios and 95% intervals
exponentiate the estimates, matching the published table semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataio import column, csv_text, json_text, table_csv, table_json
from .errors import (
    ConfigError,
    Degeneracy,
    ErgmkitError,
    NonConvergence,
    Separation,
    SingularInformation,
)
from .graph import AttributeTable, Graph
from .logistic import collinear_terms, fit_logistic, sigmoid
from .model import CompiledModel, Edges, ModelSpec, TermSpec, dyad_endpoints, term_to_dict
from .sampler import SamplerConfig, simulate, simulation_counters

Z_95 = 1.959964
_MAX_OUTER = 20  # MC-MLE rounds before NonConvergence


@dataclass(frozen=True)
class OrRow:
    term: str = column()
    estimate: float = column()
    se: float = column(csv="SE")
    odds_ratio: float = column(csv="OR", json="or")
    ci_low: float = column()
    ci_high: float = column()
    p_value: float = column(csv="p", json="p")
    stars: str = column()


@dataclass(frozen=True)
class FitResult:
    theta: np.ndarray
    covariance: np.ndarray
    stat_names: tuple[str, ...]
    method: str
    rows: tuple[OrRow, ...]
    diagnostics: dict

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "theta": [float(v) for v in self.theta],
            "stat_names": list(self.stat_names),
            "covariance": [[float(v) for v in row] for row in self.covariance],
            "table": table_json(OrRow, self.rows),
            "diagnostics": self.diagnostics,
        }
        return json_text(payload)

    def to_csv(self) -> str:
        return table_csv(OrRow, self.rows)


def _stars(p: float) -> str:
    if p < 0.001:
        return "‡"  # double dagger
    if p < 0.01:
        return "†"  # dagger
    if p < 0.05:
        return "*"
    return ""


def _exp(x: float) -> float:
    # wide intervals on weakly identified terms can push exp past the
    # float range; the bound is then infinite, not an error
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def or_table(
    theta: np.ndarray,
    covariance: np.ndarray,
    names: Sequence[str],
) -> tuple[OrRow, ...]:
    """Per-term odds ratios, Wald 95% intervals, and two-sided p-values."""
    theta = np.asarray(theta, dtype=np.float64)
    var = np.diag(np.asarray(covariance, dtype=np.float64))
    if np.any(var < 0):
        raise ValueError("covariance diagonal must be nonnegative")
    rows = []
    for k, name in enumerate(names):
        est = float(theta[k])
        se = float(math.sqrt(var[k]))
        if se > 0:
            zstat = abs(est) / se
            p = math.erfc(zstat / math.sqrt(2.0))
        else:
            p = 1.0 if est == 0.0 else 0.0
        rows.append(
            OrRow(
                term=name,
                estimate=est,
                se=se,
                odds_ratio=_exp(est),
                ci_low=_exp(est - Z_95 * se),
                ci_high=_exp(est + Z_95 * se),
                p_value=p,
                stars=_stars(p),
            )
        )
    return tuple(rows)


def fit_mple(g: Graph, attrs: AttributeTable, model: ModelSpec) -> FitResult:
    """Maximum pseudo-likelihood via IRLS on the grouped design.

    ``CompiledModel.design_matrix`` groups the dyads into rows of equal
    change statistics and tie state, with the dyad count as the trials and
    the tie count as the successes: the dyad-level pseudo-likelihood
    regrouped, built in O(n + m + C^2) for C node classes. A fitted row
    probability within 1e-8 of 0 or 1 means the data are quasi-separated
    and no finite estimate exists; that raises ``Separation``.
    ``diagnostics`` reports the dyads and the rows fitted (``blocks``).
    """
    cm = CompiledModel(model, attrs, g.n)
    X, y, trials = cm.design_matrix(g)
    lf = fit_logistic(X, y, names=list(cm.stat_names), trials=trials)
    mu = sigmoid(X @ lf.beta)
    if np.any(np.minimum(mu, 1.0 - mu) < 1e-8):
        worst = cm.stat_names[int(np.argmax(np.abs(lf.beta)))]
        raise Separation(f"fitted tie probabilities reach 0 or 1; term {worst!r} diverges")
    return FitResult(
        theta=lf.beta,
        covariance=lf.covariance,
        stat_names=cm.stat_names,
        method="MPLE",
        rows=or_table(lf.beta, lf.covariance, cm.stat_names),
        diagnostics={
            "iterations": lf.iterations,
            "score_norm": lf.score_norm,
            "dyads": int(trials.sum()),
            "blocks": int(len(y)),
        },
    )


def _check_degeneracy(obs: np.ndarray, stats: np.ndarray, names) -> None:
    mean = stats.mean(axis=0)
    sd = stats.std(axis=0)
    scale = np.maximum(1.0, np.abs(obs))
    stuck = (sd < 1e-6 * scale) & (np.abs(mean - obs) > 0.05 * scale)
    if stuck.any():
        detail = ", ".join(
            f"{names[k]}: observed {obs[k]:g} vs sampled mean {mean[k]:g}"
            for k in np.flatnonzero(stuck)
        )
        raise Degeneracy(f"sampled statistics collapsed away from observed ({detail})")


def fit_mcmle(
    g: Graph,
    attrs: AttributeTable,
    model: ModelSpec,
    cfg: SamplerConfig,
    theta0: Optional[np.ndarray] = None,
) -> FitResult:
    """Monte Carlo MLE by repeated importance-sampled maximization.

    Each round draws ``cfg.sample_count`` graphs at the current parameter
    with ``simulate`` and Newton-maximizes the log-likelihood-ratio
    estimate; the round converges when the estimated gradient norm drops
    to 1e-3 * p without the step being truncated by the
    effective-sample-size floor. The covariance is the inverse of the
    weighted sample covariance of the statistics at the solution; a
    confirmation sample whose statistics do not vary independently raises
    SingularInformation naming them. A dyad-independent model gets i.i.d.
    exact draws, so ``cfg.burn_in``/``cfg.thin`` apply only to models with
    gwdegree. ``diagnostics["proposals"]`` counts the MH proposals of every
    round and of the confirmation sample, 0 for exact draws.
    """
    cm = CompiledModel(model, attrs, g.n)
    p = cm.p
    obs = cm.statistics(g)
    if theta0 is None:
        theta_t = fit_mple(g, attrs, model).theta.copy()
    else:
        theta_t = np.asarray(theta0, dtype=np.float64).copy()
    # one config per round and one for the confirmation sample, each seeded
    # from a child of cfg.seed's SeedSequence
    streams = np.random.SeedSequence(cfg.seed).spawn(_MAX_OUTER + 1)
    cfgs = [replace(cfg, seed=int(s.generate_state(1, np.uint64)[0])) for s in streams]
    grad_tol = 1e-3 * p
    ess_floor = max(5.0, cfg.sample_count / 100.0)
    theta_hat = None
    outer_used = 0
    for outer in range(_MAX_OUTER):
        outer_used = outer + 1
        _, S = simulate(g, theta_t, model, attrs, cfgs[outer])
        _check_degeneracy(obs, S, cm.stat_names)
        delta = np.zeros(p)
        converged = False
        truncated = False
        gnorm = np.inf
        # polish well past the outer stopping rule so the only error left
        # in the batch optimum is Monte Carlo noise
        polish_tol = min(grad_tol, 1e-8)
        for _ in range(60):
            eta = S @ delta
            m = float(eta.max())
            w = np.exp(eta - m)
            w /= w.sum()
            ess = 1.0 / float(np.sum(w * w))
            mean = w @ S
            grad = obs - mean
            gnorm = float(np.linalg.norm(grad))
            converged = converged or gnorm <= grad_tol
            if gnorm <= polish_tol:
                break
            if ess < ess_floor:
                truncated = True
                break
            centered = S - mean
            H = centered.T @ (centered * w[:, None])
            try:
                step = np.linalg.solve(H, grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(H, grad, rcond=None)[0]
                truncated = True
            norm = float(np.linalg.norm(step))
            if norm > 1.5:
                step *= 1.5 / norm
                truncated = True
            delta = delta + step
        theta_t = theta_t + delta
        if converged and not truncated:
            theta_hat = theta_t
            break
    if theta_hat is None:
        raise NonConvergence(
            f"MC-MLE did not converge in {_MAX_OUTER} rounds (last gradient norm {gnorm:.3g})"
        )
    # confirmation sample at the solution: weights are uniform, so the
    # weighted statistic covariance is the plain sample covariance
    _, S = simulate(g, theta_hat, model, attrs, cfgs[_MAX_OUTER])
    _check_degeneracy(obs, S, cm.stat_names)
    mean = S.mean(axis=0)
    centered = S - mean
    info = centered.T @ centered / len(S)
    try:
        covariance = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        involved = collinear_terms(centered, list(cm.stat_names)) or list(cm.stat_names)
        raise SingularInformation(
            f"confirmation sample covariance is singular; statistics without "
            f"independent variation: {involved}"
        ) from None
    moment_gap = obs - mean
    mc_se = np.sqrt(np.diag(covariance) / len(S))
    return FitResult(
        theta=theta_hat,
        covariance=covariance,
        stat_names=cm.stat_names,
        method="MCMLE",
        rows=or_table(theta_hat, covariance, cm.stat_names),
        diagnostics={
            "iterations": outer_used,
            "proposals": (outer_used + 1) * simulation_counters(model, g.n, cfg)["proposals"],
            "grad_norm": gnorm,
            "ess": float(len(S)),
            "mc_se": [float(v) for v in mc_se],
            "moment_gap": [float(v) for v in moment_gap],
        },
    )


def fit_counters(result: FitResult) -> dict:
    """Seed-determined work counts of a fit, for the run manifest."""
    d = result.diagnostics
    if result.method == "MPLE":
        return {
            "method": "MPLE",
            "dyads": d["dyads"],
            "blocks": d["blocks"],
            "iterations": d["iterations"],
        }
    return {"method": "MCMLE", "rounds": d["iterations"], "proposals": d["proposals"]}


@dataclass(frozen=True)
class GofRow:
    name: str = column()
    observed: float = column()
    sim_mean: float = column()
    lo: float = column()
    hi: float = column()
    p_value: float = column(csv="p", json="p")
    in_band: bool = column()  # lo <= observed <= hi


@dataclass(frozen=True)
class GofReport:
    """Observed statistics against their distribution simulated at theta-hat.

    ``no_lack_of_fit`` is True when every model statistic's observed value
    falls inside the central 95% simulation band; degree-distribution and
    auxiliary rows are reported alongside but do not enter the flag.
    """

    stat_rows: tuple[GofRow, ...]
    degree_rows: tuple[GofRow, ...]
    aux_rows: tuple[GofRow, ...] = ()
    no_lack_of_fit: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "no_lack_of_fit", all(r.in_band for r in self.stat_rows)
        )

    def to_json(self) -> str:
        return json_text(
            {
                "model_statistics": table_json(GofRow, self.stat_rows),
                "degree_distribution": table_json(GofRow, self.degree_rows),
                "auxiliary_statistics": table_json(GofRow, self.aux_rows),
                "no_lack_of_fit": self.no_lack_of_fit,
            }
        )

    def to_csv(self) -> str:
        return table_csv(GofRow, self.stat_rows + self.degree_rows + self.aux_rows)


def _gof_row(name: str, observed: float, sims: np.ndarray) -> GofRow:
    lo, hi = (float(q) for q in np.percentile(sims, [2.5, 97.5]))
    observed = float(observed)
    pl = float(np.mean(sims <= observed))
    pg = float(np.mean(sims >= observed))
    p = min(1.0, 2.0 * min(pl, pg))
    return GofRow(
        name=name,
        observed=observed,
        sim_mean=float(sims.mean()),
        lo=lo,
        hi=hi,
        p_value=p,
        in_band=lo <= observed <= hi,
    )


def gof(
    g: Graph,
    attrs: AttributeTable,
    model: ModelSpec,
    theta: np.ndarray,
    cfg: SamplerConfig,
    aux_model: ModelSpec | None = None,
    trace_path=None,
) -> GofReport:
    """Simulate at theta and compare observed statistics to the bands.

    Dyad-independent models are drawn exactly, so ``cfg.burn_in`` and
    ``cfg.thin`` apply only to models with gwdegree (see ``simulate``).
    Each draw, the sorted int64 array of its tied dyads' lexicographic
    positions, is reduced to its degree counts through ``dyad_endpoints``.

    ``aux_model`` adds statistics evaluated on the simulated graphs but
    absent from the fitted model, for detecting misfit the model cannot
    express; they are reported but excluded from the no-lack-of-fit flag.
    Only these rows build a ``Graph`` per draw. ``trace_path`` writes the
    retained statistic vectors as a CSV for mixing diagnostics.
    """
    cm = CompiledModel(model, attrs, g.n)
    obs = cm.statistics(g)
    draws, S = simulate(g, theta, model, attrs, cfg)
    if trace_path is not None:
        Path(trace_path).write_text(csv_text(cm.stat_names, S.tolist()), encoding="utf-8")
    stat_rows = tuple(
        _gof_row(cm.stat_names[k], obs[k], S[:, k]) for k in range(cm.p)
    )
    degrees = [np.bincount(dyad_endpoints(g.n, d).ravel(), minlength=g.n) for d in draws]
    sim_deg = np.array([np.bincount(k, minlength=g.n) for k in degrees])
    obs_deg = np.bincount(g.degrees(), minlength=g.n)
    max_deg = int(max(g.degrees().max(), max(k.max() for k in degrees)))
    degree_rows = tuple(
        _gof_row(f"degree{d}", float(obs_deg[d]), sim_deg[:, d])
        for d in range(max_deg + 1)
    )
    aux_rows: tuple[GofRow, ...] = ()
    if aux_model is not None:
        am = CompiledModel(aux_model, attrs, g.n)
        aux_obs = am.statistics(g)
        graphs = (Graph(g.n, dyad_endpoints(g.n, d).tolist()) for d in draws)
        aux_sims = np.array([am.statistics(gs) for gs in graphs])
        aux_rows = tuple(
            _gof_row(am.stat_names[k], aux_obs[k], aux_sims[:, k])
            for k in range(am.p)
        )
    return GofReport(stat_rows=stat_rows, degree_rows=degree_rows, aux_rows=aux_rows)


@dataclass(frozen=True)
class ScreenEntry:
    term: TermSpec
    selected: bool
    p_min: Optional[float]
    error: Optional[str]


@dataclass(frozen=True)
class ScreenReport:
    alpha: float
    entries: tuple[ScreenEntry, ...]

    @property
    def selected(self) -> tuple[TermSpec, ...]:
        return tuple(e.term for e in self.entries if e.selected)

    def to_json(self) -> str:
        return json_text(
            {
                "alpha": self.alpha,
                "entries": [
                    {
                        "term": term_to_dict(e.term),
                        "selected": e.selected,
                        "p_min": e.p_min,
                        "error": e.error,
                    }
                    for e in self.entries
                ],
            }
        )


def screen_univariate(
    g: Graph,
    attrs: AttributeTable,
    candidates: Sequence[TermSpec],
    alpha: float = 0.2,
) -> ScreenReport:
    """Fit Edges + term for each candidate; keep terms with any p < alpha.

    A candidate whose fit raises an ``ErgmkitError`` (separation, a
    singular design) is recorded with the error without aborting the
    screen; any other exception is a fault and propagates.
    """
    entries = []
    for term in candidates:
        if isinstance(term, Edges):
            raise ConfigError("the edges term is the screening baseline, not a candidate")
        try:
            result = fit_mple(g, attrs, ModelSpec([Edges(), term]))
        except ErgmkitError as exc:  # recorded per candidate, keep screening
            entries.append(
                ScreenEntry(term=term, selected=False, p_min=None, error=str(exc))
            )
            continue
        term_ps = [row.p_value for row in result.rows[1:]]
        p_min = min(term_ps) if term_ps else None
        selected = p_min is not None and p_min < alpha
        entries.append(
            ScreenEntry(term=term, selected=selected, p_min=p_min, error=None)
        )
    return ScreenReport(alpha=alpha, entries=tuple(entries))
