"""Synthetic attribute tables and model-simulated graphs for testing.

Attributes are drawn independently per node from declared marginals, the
graph is simulated at the declared true parameters (an exact draw for
dyad-independent models, a long Metropolis run from the empty graph for
models with gwdegree, whose burn-in ``SynthSpec.burn_in`` sets), and
missingness is injected either completely at random or conditionally
on one observed covariate through a logistic link whose intercept is
calibrated so the average missing probability hits the requested rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import (
    AttributeTable,
    CategoricalColumn,
    ContinuousColumn,
    Graph,
    MISSING_CODE,
)
from .imputation import MissingnessMask
from .logistic import sigmoid
from .model import ModelSpec, term_from_dict, term_to_dict
from .sampler import SamplerConfig, simulate


@dataclass(frozen=True)
class CategoricalSpec:
    levels: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.probs):
            raise ConfigError("levels and probs must align")
        if abs(sum(self.probs) - 1.0) > 1e-9 or any(p < 0 for p in self.probs):
            raise ConfigError("level probabilities must be nonnegative and sum to 1")


@dataclass(frozen=True)
class ContinuousSpec:
    mean: float
    sd: float

    def __post_init__(self):
        if self.sd < 0:
            raise ConfigError("sd must be >= 0")


@dataclass(frozen=True)
class MissingSpec:
    column: str
    rate: float
    mechanism: str = "mcar"  # mcar | mar
    covariate: str | None = None
    slope: float = 1.0

    def __post_init__(self):
        if not 0 <= self.rate < 1:
            raise ConfigError("missingness rate must be in [0, 1)")
        if self.mechanism not in ("mcar", "mar"):
            raise ConfigError(f"unknown missingness mechanism {self.mechanism!r}")
        if self.mechanism == "mar" and not self.covariate:
            raise ConfigError("mar missingness needs a conditioning covariate")


@dataclass(frozen=True)
class SynthSpec:
    n: int
    columns: dict  # name -> CategoricalSpec | ContinuousSpec
    model: ModelSpec
    theta: tuple[float, ...]
    missing: tuple[MissingSpec, ...] = ()
    seed: int = 0
    burn_in: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n must be >= 1")


def _calibrate_intercept(z: np.ndarray, slope: float, rate: float) -> float:
    """Bisection for a with mean(sigmoid(a + slope z)) = rate."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if float(np.mean(sigmoid(mid + slope * z))) < rate:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def generate(
    spec: SynthSpec,
) -> tuple[Graph, AttributeTable, MissingnessMask, np.ndarray]:
    """Graph, attribute table with injected missingness, mask, and true theta."""
    root = np.random.SeedSequence(spec.seed)
    attr_ss, graph_ss, miss_ss = root.spawn(3)
    rng = np.random.Generator(np.random.PCG64(attr_ss))
    cols = []
    for name, cspec in spec.columns.items():
        if isinstance(cspec, CategoricalSpec):
            codes = rng.choice(len(cspec.levels), size=spec.n, p=cspec.probs)
            cols.append(CategoricalColumn(name, cspec.levels, codes.astype(np.int64)))
        elif isinstance(cspec, ContinuousSpec):
            vals = rng.normal(cspec.mean, cspec.sd, size=spec.n)
            cols.append(ContinuousColumn(name, vals))
        else:
            raise ConfigError(f"unknown column spec for {name!r}")
    complete = AttributeTable(cols)

    theta = np.asarray(spec.theta, dtype=np.float64)
    graph_seed = int(graph_ss.generate_state(1, np.uint64)[0])
    cfg = SamplerConfig(
        burn_in=spec.burn_in, thin=1, sample_count=1, seed=graph_seed
    )
    graphs, _ = simulate(Graph(spec.n), theta, spec.model, complete, cfg)
    g = graphs[0]

    mrng = np.random.Generator(np.random.PCG64(miss_ss))
    new_cols = {c.name: c for c in complete.columns()}
    for ms in spec.missing:
        col = new_cols[ms.column]
        if ms.mechanism == "mcar":
            mask = mrng.random(spec.n) < ms.rate
        else:
            cov = complete[ms.covariate]
            z = (
                cov.values.astype(np.float64)
                if isinstance(cov, ContinuousColumn)
                else cov.codes.astype(np.float64)
            )
            sd = z.std()
            z = (z - z.mean()) / sd if sd > 0 else np.zeros(spec.n)
            a = _calibrate_intercept(z, ms.slope, ms.rate)
            mask = mrng.random(spec.n) < sigmoid(a + ms.slope * z)
        if isinstance(col, CategoricalColumn):
            codes = col.codes.copy()
            codes[mask] = MISSING_CODE
            new_cols[ms.column] = CategoricalColumn(col.name, col.levels, codes)
        else:
            vals = col.values.copy()
            vals[mask] = np.nan
            new_cols[ms.column] = ContinuousColumn(col.name, vals, col.units)
    observed = AttributeTable(tuple(new_cols.values()))
    return g, observed, MissingnessMask.of(observed), theta


def spec_from_dict(d: dict) -> SynthSpec:
    columns = {}
    for name, c in d.get("columns", {}).items():
        if c.get("type") == "categorical":
            columns[name] = CategoricalSpec(tuple(c["levels"]), tuple(c["probs"]))
        elif c.get("type") == "continuous":
            columns[name] = ContinuousSpec(float(c["mean"]), float(c["sd"]))
        else:
            raise ConfigError(f"column {name!r}: unknown type {c.get('type')!r}")
    missing = tuple(
        MissingSpec(
            column=m["column"],
            rate=float(m["rate"]),
            mechanism=m.get("mechanism", "mcar"),
            covariate=m.get("covariate"),
            slope=float(m.get("slope", 1.0)),
        )
        for m in d.get("missing", [])
    )
    return SynthSpec(
        n=int(d["n"]),
        columns=columns,
        model=ModelSpec([term_from_dict(t) for t in d["model"]]),
        theta=tuple(float(v) for v in d["theta"]),
        missing=missing,
        seed=int(d.get("seed", 0)),
        burn_in=d.get("burn_in"),
    )


def spec_to_dict(spec: SynthSpec) -> dict:
    columns = {}
    for name, c in spec.columns.items():
        if isinstance(c, CategoricalSpec):
            columns[name] = {
                "type": "categorical",
                "levels": list(c.levels),
                "probs": list(c.probs),
            }
        else:
            columns[name] = {"type": "continuous", "mean": c.mean, "sd": c.sd}
    return {
        "n": spec.n,
        "columns": columns,
        "model": [term_to_dict(t) for t in spec.model.terms],
        "theta": list(spec.theta),
        "missing": [
            {
                "column": m.column,
                "rate": m.rate,
                "mechanism": m.mechanism,
                "covariate": m.covariate,
                "slope": m.slope,
            }
            for m in spec.missing
        ],
        "seed": spec.seed,
        "burn_in": spec.burn_in,
    }
