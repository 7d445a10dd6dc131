"""Correctness checks on one workload operation's outputs, and the ESS estimator.

The checks read only the files a run leaves on disk and the benchmark's own
input files; the MPLE score check recomputes expected statistics from
level-pair block counts with this module's own code, not ergmkit.model.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from inputs import SCHEMA

SCORE_RTOL = 1e-6


def geyer_ess(x: np.ndarray) -> float:
    """Effective sample size of one series by Geyer's initial monotone
    sequence estimator (Geyer 1992, Stat. Sci. 7(4)); nan for a constant series."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    centered = x - x.mean()
    gamma0 = float(centered @ centered) / n
    if n < 4 or gamma0 <= 0.0:
        return math.nan
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n] / n
    pairs = acov[: n - n % 2].reshape(-1, 2).sum(axis=1)
    total = 0.0
    bound = math.inf
    for gamma in pairs:
        if gamma <= 0.0:
            break
        bound = min(bound, float(gamma))  # monotone: never exceed an earlier pair
        total += bound
    var = -gamma0 + 2.0 * total
    return n * gamma0 / var if var > 0 else float(n)


def chain_ess(stats: np.ndarray) -> float:
    """Smallest per-statistic ESS of one chain's (samples x statistics)
    matrix, ignoring statistics that never moved; nan if none moved."""
    values = [geyer_ess(stats[:, k]) for k in range(stats.shape[1])]
    values = [v for v in values if not math.isnan(v)]
    return min(values) if values else math.nan


def tree_digest(root: Path, patterns=("**/*",)) -> str:
    """SHA-256 over the relative path and bytes of every file under ``root``
    matching one of ``patterns``."""
    h = hashlib.sha256()
    files = sorted({p for pattern in patterns for p in root.glob(pattern) if p.is_file()})
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _completed_codes(input_dir: Path) -> dict[str, np.ndarray]:
    """Level codes per categorical column, missing cells filled from the
    PSM donors recorded in the run's imputation.json."""
    with open(input_dir / "attributes.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    imputation = json.loads((input_dir / "out" / "imputation.json").read_text())
    codes = {}
    for name, spec in SCHEMA["columns"].items():
        if spec["type"] != "categorical":
            continue
        levels = spec["levels"]
        col = np.array([levels.index(r[name]) if r[name] else -1 for r in rows])
        for node, donor in imputation.get(name, {}).get("donors", {}).items():
            col[int(node)] = col[donor]
        codes[name] = col
    codes["_ids"] = [r["id"] for r in rows]
    return codes


def _stat_row(names, attrs, levels_a, levels_b) -> np.ndarray:
    """Change-statistic row of a dyad whose endpoints have the given levels."""
    row = np.zeros(len(names))
    for k, name in enumerate(names):
        parts = name.split(".")
        if parts == ["edges"]:
            row[k] = 1.0
        elif parts[0] == "nodemix" and len(parts) == 4:
            col = attrs.index(parts[1])
            pair = sorted([levels_a[col], levels_b[col]])
            row[k] = float(pair == sorted(parts[2:]))
        else:
            raise ValueError(f"score check does not know statistic {name!r}")
    return row


def score_gap(input_dir: Path, stat_names, theta) -> float:
    """Largest |observed - expected| / max(1, |observed|) over statistics,
    with expectations under the dyad-independent model at theta.

    Nodes are grouped by their joint level over the model's attributes;
    every dyad between two groups has the same change-statistic row, so the
    MPLE score equations reduce to one row per unordered group pair."""
    theta = np.asarray(theta, dtype=np.float64)
    attrs = sorted({n.split(".")[1] for n in stat_names if n.startswith("nodemix.")})
    codes = _completed_codes(input_dir)
    labels = [SCHEMA["columns"][a]["levels"] for a in attrs]
    joint = [tuple(codes[a][i] for a in attrs) for i in range(len(codes["_ids"]))]
    groups = sorted(set(joint))
    gid = {g: k for k, g in enumerate(groups)}
    node_group = np.array([gid[j] for j in joint])
    size = np.bincount(node_group, minlength=len(groups))
    index = {node_id: k for k, node_id in enumerate(codes["_ids"])}
    ties = np.zeros((len(groups), len(groups)))
    with open(input_dir / "edges.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            a, b = sorted((node_group[index[r["source"]]], node_group[index[r["target"]]]))
            ties[a, b] += 1
    observed = np.zeros(len(theta))
    expected = np.zeros(len(theta))
    for a in range(len(groups)):
        for b in range(a, len(groups)):
            dyads = size[a] * (size[a] - 1) / 2 if a == b else size[a] * size[b]
            if dyads == 0:
                continue
            la = [labels[c][groups[a][c]] for c in range(len(attrs))]
            lb = [labels[c][groups[b][c]] for c in range(len(attrs))]
            x = _stat_row(stat_names, attrs, la, lb)
            observed += x * ties[a, b]
            expected += x * dyads / (1.0 + math.exp(-float(x @ theta)))
    return float(np.max(np.abs(observed - expected) / np.maximum(1.0, np.abs(observed))))


def check_outputs(workload_check: str, input_dir: Path, family: str) -> list[str]:
    """Problems found in one operation's outputs; empty when it passed."""
    out = input_dir / "out"
    if (out / "FAILED").exists():
        return [f"FAILED marker: {(out / 'FAILED').read_text().strip()}"]
    try:
        docs = {
            name: json.loads((out / name).read_text())
            for name in ("manifest.json", f"fit_{family}.json", "gof.json", "network_summary.json")
        }
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    fit = docs[f"fit_{family}.json"]
    problems = []
    if not all(math.isfinite(v) for v in fit["theta"]):
        problems.append(f"non-finite theta {fit['theta']}")
    elif workload_check == "gof_band":
        if not docs["gof.json"]["no_lack_of_fit"]:
            outside = [r["name"] for r in docs["gof.json"]["model_statistics"] if not r["in_band"]]
            problems.append(f"observed statistics outside their gof band: {outside}")
    elif workload_check == "mple_score":
        gap = score_gap(input_dir, fit["stat_names"], fit["theta"])
        if not gap <= SCORE_RTOL:
            problems.append(f"MPLE score equations off by {gap:.3g} relative")
    return problems
