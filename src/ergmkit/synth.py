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

from .dataio import (
    JsonObject,
    checked,
    count,
    each,
    mapped,
    names,
    number,
    read_record,
    record_dict,
    text,
)
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
from .model import ModelSpec, read_term, term_to_dict
from .sampler import SamplerConfig, simulate


@dataclass(frozen=True)
class CategoricalSpec:
    levels: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.levels) != len(self.probs):
            raise ConfigError("levels and probs must align")
        if len(set(self.levels)) != len(self.levels):
            raise ConfigError(f"duplicate levels {list(self.levels)}")
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
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for m in self.missing:
            for name in (m.column, m.covariate if m.mechanism == "mar" else None):
                if name is not None and name not in self.columns:
                    raise ConfigError(f"missingness names {name!r}, which is not a declared column")


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


# the type field of a column spec: its class and the reader of each field
_COLUMN_TYPES = {
    "categorical": (CategoricalSpec, {"levels": names, "probs": each(number)}),
    "continuous": (ContinuousSpec, {"mean": number, "sd": number}),
}
_TYPE_OF = {cls: kind for kind, (cls, _) in _COLUMN_TYPES.items()}


def _column_spec(where: str, value) -> CategoricalSpec | ContinuousSpec:
    kind = JsonObject(where, value).get("type", text)
    if kind not in _COLUMN_TYPES:
        raise ConfigError(f"config {where}: unknown type {kind!r}")
    return read_record(where, value, *_COLUMN_TYPES[kind])


def _missing_spec(where: str, value) -> MissingSpec:
    readers = {
        "column": text, "rate": number, "mechanism": text, "covariate": text, "slope": number
    }
    return read_record(where, value, MissingSpec, readers)


def spec_from_dict(d: dict) -> SynthSpec:
    top = JsonObject("", d)
    return SynthSpec(
        n=top.get("n", count),
        columns=top.get("columns", mapped(_column_spec), {}),
        model=checked("model", ModelSpec, top.get("model", each(read_term))),
        theta=top.get("theta", each(number)),
        missing=top.get("missing", each(_missing_spec), ()),
        seed=top.get("seed", count, 0),
        burn_in=top.get("burn_in", count, None),
    )


def spec_to_dict(spec: SynthSpec) -> dict:
    return {
        **record_dict(spec),
        "columns": {
            name: {"type": _TYPE_OF[type(c)], **record_dict(c)} for name, c in spec.columns.items()
        },
        "model": [term_to_dict(t) for t in spec.model.terms],
        "missing": [record_dict(m) for m in spec.missing],
    }
