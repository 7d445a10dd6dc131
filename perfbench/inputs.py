"""Seeded input files for the benchmark workloads.

Each workload's edges CSV, attributes CSV, schema and run config come from
this module's own numpy code and the workload seed alone. Graphs are drawn
dyad by dyad from a logistic model with fixed coefficients whose intercept
is calibrated to the stated mean degree. Nothing here imports ergmkit, so
a change to the package's random streams cannot change a workload's input.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

SEX = ("male", "female")
LIVING = ("own place", "someone else", "homeless")
EDUCATION = ("less than high school", "high school", "college")

# Log-odds of a tie between two people sharing a level, and per-endpoint
# main effects; the intercept is solved for the mean degree.
MATCH = {"sex": 0.6, "living": 0.5, "education": 0.3}
FACTOR = {"sex": {"female": 0.25}, "living": {"homeless": -0.3}}

# A differential match on a two-level column plus its factor term is collinear
# with edges, so sex enters the screen as a pooled match.
CANDIDATES = [
    {"term": "nodematch", "attr": "sex", "differential": False},
    {"term": "nodematch", "attr": "living", "differential": True},
    {"term": "nodematch", "attr": "education", "differential": True},
    {"term": "nodefactor", "attr": "sex", "reference": "male"},
    {"term": "nodefactor", "attr": "living", "reference": "own place"},
    {"term": "nodefactor", "attr": "education", "reference": "high school"},
]

# n: nodes; degree: target mean degree; missing: MCAR share of `living`;
# propensity: sd of a per-node log-odds shift the attributes do not explain;
# check: how checks.py judges a finished run; config: the run config keys
# beyond the file paths and seed.
WORKLOADS = {
    "paper-run": {
        "n": 300,
        "degree": 3.3,
        "missing": 0.15,
        "propensity": 0.0,
        "check": "gof_band",
        "config": {
            "missing_policy": "missforest",
            "family": "final",
            "final_candidates": CANDIDATES,
            "imputation": {"trees": 25},
            "fit": {"method": "mple", "gof_samples": 20},
        },
    },
    "gwdegree-mcmle": {
        "n": 200,
        "degree": 3.3,
        "missing": 0.0,
        "propensity": 0.2,
        "check": "gof_band",
        "config": {
            "family": "match",
            "attributes_used": ["sex"],
            "gwdegree": 0.5,
            "fit": {"method": "mcmle", "samples": 128, "gof_samples": 32},
        },
    },
    "large-network": {
        "n": 1000,
        "degree": 3.0,
        "missing": 0.10,
        "propensity": 0.0,
        "check": "mple_score",
        "config": {
            "missing_policy": "psm",
            "family": "mix",
            "attributes_used": ["sex", "living"],
            "fit": {"method": "mple", "gof_samples": 20, "burn_in": 40000, "thin": 3000},
        },
    },
}

SCHEMA = {
    "columns": {
        "sex": {"type": "categorical", "levels": list(SEX)},
        "living": {"type": "categorical", "levels": list(LIVING)},
        "education": {"type": "categorical", "levels": list(EDUCATION)},
        "age": {"type": "continuous", "units": "years"},
    },
    "reference_levels": {"sex": "male", "living": "own place", "education": "high school"},
    "reference_pairs": {"sex": ["male", "male"], "living": ["own place", "own place"]},
}


def rng_for(workload: str, seed: int, part: int) -> np.random.Generator:
    key = zlib.crc32(workload.encode())
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, part, key])))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def draw_attributes(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    age = np.clip(rng.normal(41.0, 12.0, n), 18.0, 80.0)
    # older people more often live in their own place, so imputation has a signal
    own = _sigmoid((age - 41.0) / 8.0)
    u = rng.random(n)
    living = np.where(u < 0.6 * own + 0.2, 0, np.where(u < 0.6 * own + 0.6, 1, 2))
    return {
        "sex": (rng.random(n) < 0.45).astype(np.int64),
        "living": living.astype(np.int64),
        "education": rng.choice(3, size=n, p=[0.3, 0.45, 0.25]),
        "age": np.round(age, 1),
    }


def dyad_logits(attrs: dict[str, np.ndarray], propensity: np.ndarray) -> tuple:
    """Upper-triangle dyads and their log-odds without the intercept."""
    n = len(attrs["sex"])
    iu, ju = np.triu_indices(n, k=1)
    eta = propensity[iu] + propensity[ju]
    levels = {"sex": SEX, "living": LIVING, "education": EDUCATION}
    for name, beta in MATCH.items():
        c = attrs[name]
        eta += beta * (c[iu] == c[ju])
    for name, effects in FACTOR.items():
        node = np.zeros(n)
        for level, beta in effects.items():
            node[attrs[name] == levels[name].index(level)] = beta
        eta += node[iu] + node[ju]
    return iu, ju, eta


def calibrate_intercept(eta: np.ndarray, edges: float) -> float:
    """Intercept whose expected edge count is ``edges`` (Newton on a monotone sum)."""
    b0 = float(np.log(edges / len(eta))) - float(np.mean(eta))
    for _ in range(50):
        p = _sigmoid(b0 + eta)
        gap = float(p.sum()) - edges
        if abs(gap) < 1e-9 * edges:
            break
        b0 -= gap / float(np.sum(p * (1.0 - p)))
    return b0


def generate(workload: str, seed: int, part: int, outdir) -> Path:
    """Write input set ``part`` of the workload under ``outdir``; return the
    config path. A run uses several parts, so one unusual input cannot set
    its median."""
    spec = WORKLOADS[workload]
    rng = rng_for(workload, seed, part)
    n = spec["n"]
    attrs = draw_attributes(rng, n)
    prop = rng.normal(0.0, spec["propensity"], n) if spec["propensity"] else np.zeros(n)
    iu, ju, eta = dyad_logits(attrs, prop)
    b0 = calibrate_intercept(eta, spec["degree"] * n / 2.0)
    tie = rng.random(len(eta)) < _sigmoid(b0 + eta)
    missing = rng.random(n) < spec["missing"]

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    ids = [f"p{i:05d}" for i in range(n)]
    lines = ["source,target"] + [f"{ids[i]},{ids[j]}" for i, j in zip(iu[tie], ju[tie])]
    (out / "edges.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rows = ["id,sex,living,education,age"]
    for i in range(n):
        living = "" if missing[i] else LIVING[attrs["living"][i]]
        rows.append(
            f"{ids[i]},{SEX[attrs['sex'][i]]},{living},"
            f"{EDUCATION[attrs['education'][i]]},{attrs['age'][i]:.1f}"
        )
    (out / "attributes.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (out / "schema.json").write_text(json.dumps(SCHEMA, indent=2, sort_keys=True) + "\n")
    config = {
        "edges": "edges.csv",
        "attributes": "attributes.csv",
        "schema": "schema.json",
        "seed": seed,
        "out": "out",
        **spec["config"],
    }
    path = out / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
