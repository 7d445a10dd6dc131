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
    record,
    record_dict,
    setting,
    text,
)
from .errors import ConfigError
from .graph import AttributeTable, CategoricalColumn, ContinuousColumn, Graph
from .logistic import sigmoid
from .model import ModelSpec, dyad_endpoints, read_term, term_to_dict
from .sampler import SamplerConfig, simulate


@dataclass(frozen=True)
class CategoricalSpec:
    levels: tuple[str, ...] = setting(names)
    probs: tuple[float, ...] = setting(each(number))

    def __post_init__(self):
        if len(self.levels) != len(self.probs):
            raise ConfigError("levels and probs must align")
        if len(set(self.levels)) != len(self.levels):
            raise ConfigError(f"duplicate levels {list(self.levels)}")
        if abs(sum(self.probs) - 1.0) > 1e-9 or any(p < 0 for p in self.probs):
            raise ConfigError("level probabilities must be nonnegative and sum to 1")


@dataclass(frozen=True)
class ContinuousSpec:
    mean: float = setting(number)
    sd: float = setting(number)

    def __post_init__(self):
        if self.sd < 0:
            raise ConfigError("sd must be >= 0")


@dataclass(frozen=True)
class MissingSpec:
    column: str = setting(text)
    rate: float = setting(number)
    mechanism: str = setting(text, "mcar")  # mcar | mar
    covariate: str | None = setting(text, None)
    slope: float = setting(number, 1.0)

    def __post_init__(self):
        if not 0 <= self.rate < 1:
            raise ConfigError("missingness rate must be in [0, 1)")
        if self.mechanism not in ("mcar", "mar"):
            raise ConfigError(f"unknown missingness mechanism {self.mechanism!r}")
        if self.mechanism == "mar" and not self.covariate:
            raise ConfigError("mar missingness needs a conditioning covariate")


# the type field of a column spec: its class
_COLUMN_TYPES = {"categorical": CategoricalSpec, "continuous": ContinuousSpec}
_TYPE_OF = {cls: kind for kind, cls in _COLUMN_TYPES.items()}


def _column_spec(where: str, value) -> CategoricalSpec | ContinuousSpec:
    obj = JsonObject(where, value)
    kind = obj.get("type", text)
    if kind not in _COLUMN_TYPES:
        raise ConfigError(f"config {where}: unknown type {kind!r}")
    return read_record(obj, _COLUMN_TYPES[kind])


def _model(where: str, value) -> ModelSpec:
    return checked(where, ModelSpec, each(read_term)(where, value))


@dataclass(frozen=True)
class SynthSpec:
    n: int = setting(count)
    model: ModelSpec = setting(_model)
    theta: tuple[float, ...] = setting(each(number))
    columns: dict = setting(mapped(_column_spec), factory=dict)  # name -> column spec
    missing: tuple[MissingSpec, ...] = setting(each(record(MissingSpec)), ())
    seed: int = setting(count, 0)
    burn_in: int | None = setting(count, None)

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


def generate(spec: SynthSpec) -> tuple[Graph, AttributeTable, np.ndarray]:
    """Graph, attribute table with injected missingness, and true theta."""
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
    draws, _ = simulate(Graph(spec.n), theta, spec.model, complete, cfg)
    g = Graph(spec.n, dyad_endpoints(spec.n, draws[0]).tolist())

    mrng = np.random.Generator(np.random.PCG64(miss_ss))
    new_cols = {c.name: c for c in complete.columns()}
    for ms in spec.missing:
        if ms.mechanism == "mcar":
            mask = mrng.random(spec.n) < ms.rate
        else:
            z = complete[ms.covariate].numeric()
            sd = z.std()
            z = (z - z.mean()) / sd if sd > 0 else np.zeros(spec.n)
            a = _calibrate_intercept(z, ms.slope, ms.rate)
            mask = mrng.random(spec.n) < sigmoid(a + ms.slope * z)
        col = new_cols[ms.column]
        new_cols[ms.column] = col.with_numeric(np.where(mask, np.nan, col.numeric()))
    return g, AttributeTable(tuple(new_cols.values())), theta


def spec_from_dict(d: dict) -> SynthSpec:
    return read_record(JsonObject("", d), SynthSpec)


def spec_to_dict(spec: SynthSpec) -> dict:
    return {
        **record_dict(spec),
        "columns": {
            name: {"type": _TYPE_OF[type(c)], **record_dict(c)} for name, c in spec.columns.items()
        },
        "model": [term_to_dict(t) for t in spec.model.terms],
        "missing": [record_dict(m) for m in spec.missing],
    }
