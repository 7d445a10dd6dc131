"""Missing-attribute completion.

Two single-imputation strategies over an attribute table:

* propensity matching: regress the missingness indicator of the target on
  complete covariates, then copy each missing case's value from the
  observed case with the nearest propensity score;
* iterative forest: initialize missing cells with the column mode or
  mean, then cycle through target columns in increasing missing-count
  order refitting a random forest of each on the rest, stopping when the
  imputation-change criterion first rises and returning the previous
  round's values.

Both treat rows as independent; neither consults the graph. Observed
cells are never altered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllMissing, ConfigError, CovariateMissing, PropensityDegenerate, Separation
from .forest import ForestConfig, RandomForest
from .graph import (
    AttributeTable,
    CategoricalColumn,
    ContinuousColumn,
    MISSING_CODE,
)
from .logistic import fit_logistic, sigmoid

_MAX_ROUNDS = 10  # missForest rounds


@dataclass(frozen=True)
class MissingnessMask:
    """Per-column boolean arrays, True where the cell was missing."""

    masks: dict[str, np.ndarray]

    @classmethod
    def of(cls, attrs: AttributeTable) -> "MissingnessMask":
        return cls({name: attrs[name].missing_mask().copy() for name in attrs.names})

    def __getitem__(self, name: str) -> np.ndarray:
        return self.masks[name]

    def total(self) -> int:
        return int(sum(m.sum() for m in self.masks.values()))


@dataclass(frozen=True)
class ImputationResult:
    completed: AttributeTable
    provenance: MissingnessMask
    method: str
    diagnostics: dict


def _design_from_covariates(
    attrs: AttributeTable, covariates: list[str]
) -> tuple[np.ndarray, list[str]]:
    """Intercept, dummy-coded categoricals, and standardized continuous."""
    n = attrs.n
    cols: list[np.ndarray] = [np.ones(n)]
    names = ["intercept"]
    for name in covariates:
        col = attrs[name]
        if col.missing_mask().any():
            raise CovariateMissing(f"covariate {name!r} has missing cells")
        if isinstance(col, CategoricalColumn):
            for k, lev in enumerate(col.levels):
                if k == 0:
                    continue  # first level is the dummy baseline
                cols.append((col.codes == k).astype(np.float64))
                names.append(f"{name}[{lev}]")
        else:
            v = col.values
            sd = float(v.std())
            cols.append((v - v.mean()) / sd if sd > 0 else np.zeros(n))
            names.append(f"{name}(std)")
    return np.column_stack(cols), names


def impute_psm(
    attrs: AttributeTable,
    target: str,
    covariates: list[str],
    seed: int = 0,
) -> ImputationResult:
    """Nearest-propensity donor imputation for one target column.

    The propensity is the fitted probability of the target being missing.
    Ties in score distance break toward the smallest donor index. The
    procedure is deterministic; the seed is accepted for interface parity
    and recorded in the diagnostics.
    """
    col = attrs[target]
    missing = col.missing_mask()
    provenance = MissingnessMask.of(attrs)
    if (~missing).sum() == 0:
        raise AllMissing(f"target {target!r} has no observed cells")
    if missing.sum() == 0:
        return ImputationResult(
            completed=attrs,
            provenance=provenance,
            method="PSM",
            diagnostics={"imputed": 0, "donors": {}, "seed": seed},
        )
    X, names = _design_from_covariates(attrs, covariates)
    try:
        lf = fit_logistic(X, missing.astype(np.float64), names=names)
    except Separation as exc:
        raise PropensityDegenerate(str(exc)) from exc
    scores = sigmoid(X @ lf.beta)
    observed_idx = np.flatnonzero(~missing)
    donors: dict[int, int] = {}
    if isinstance(col, CategoricalColumn):
        new_vals = col.codes.copy()
    else:
        new_vals = col.values.copy()
    for i in np.flatnonzero(missing):
        gaps = np.abs(scores[observed_idx] - scores[i])
        donor = int(observed_idx[int(np.argmin(gaps))])  # first occurrence wins
        donors[int(i)] = donor
        new_vals[i] = new_vals[donor]  # donors are observed, hence original
    if isinstance(col, CategoricalColumn):
        new_col: object = CategoricalColumn(col.name, col.levels, new_vals)
    else:
        new_col = ContinuousColumn(col.name, new_vals, col.units)
    completed = attrs.with_columns(new_col)
    return ImputationResult(
        completed=completed,
        provenance=provenance,
        method="PSM",
        diagnostics={
            "imputed": int(missing.sum()),
            "donors": donors,
            "propensity_coefficients": {
                name: float(b) for name, b in zip(names, lf.beta)
            },
            "seed": seed,
        },
    )


def _mode_code(codes: np.ndarray) -> int:
    observed = codes[codes != MISSING_CODE]
    counts = np.bincount(observed)
    return int(np.argmax(counts))  # smallest code on ties


class _Working:
    """Mutable copy of the table's columns as plain arrays."""

    def __init__(self, attrs: AttributeTable, columns: list[str]):
        self.attrs = attrs
        self.names = columns
        self.kind = {}
        self.values = {}
        for name in columns:
            col = attrs[name]
            if isinstance(col, CategoricalColumn):
                self.kind[name] = "cat"
                self.values[name] = col.codes.astype(np.float64)
            else:
                self.kind[name] = "cont"
                self.values[name] = col.values.copy()

    def features_for(self, target: str) -> np.ndarray:
        cols = []
        for name in self.names:
            if name == target:
                continue
            v = self.values[name]
            if self.kind[name] == "cat":
                levels = len(self.attrs[name].levels)
                for k in range(levels):
                    cols.append((v == k).astype(np.float64))
            else:
                cols.append(v)
        if not cols:
            return np.zeros((self.attrs.n, 1))
        return np.column_stack(cols)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: v.copy() for name, v in self.values.items()}


def impute_missforest(
    attrs: AttributeTable,
    targets: list[str],
    covariates: list[str] | None = None,
    forest: ForestConfig = ForestConfig(),
    seed: int = 0,
) -> ImputationResult:
    """Iterative per-column forest imputation of the target columns.

    Covariates default to every other column in the table. Stops at the
    first round where the change criterion rises for every variable type
    present (proportion of changed cells for categorical targets,
    normalized squared change for continuous ones) and returns the values
    from the round before; caps at 10 rounds otherwise.
    """
    if not targets:
        raise ConfigError("no target columns given")
    if covariates is None:
        covariates = [c for c in attrs.names if c not in targets]
    provenance = MissingnessMask.of(attrs)
    masks = {t: attrs[t].missing_mask() for t in targets}
    for t in targets:
        if (~masks[t]).sum() == 0:
            raise AllMissing(f"target {t!r} has no observed cells")
    total_missing = sum(int(m.sum()) for m in masks.values())
    if total_missing == 0:
        return ImputationResult(
            completed=attrs,
            provenance=provenance,
            method="MissForest",
            diagnostics={"iterations": 0, "imputed": {t: 0 for t in targets}, "oob": {}},
        )

    for name in covariates:
        if name not in targets and attrs[name].missing_mask().any():
            raise CovariateMissing(f"covariate {name!r} has missing cells")
    columns = list(dict.fromkeys(list(targets) + list(covariates)))
    work = _Working(attrs, columns)
    # initial fill: column mode for categorical, mean for continuous
    for t in targets:
        m = masks[t]
        if work.kind[t] == "cat":
            work.values[t][m] = _mode_code(attrs[t].codes)
        else:
            work.values[t][m] = float(np.nanmean(attrs[t].values))
    order = sorted(targets, key=lambda t: (int(masks[t].sum()), targets.index(t)))
    cat_targets = [t for t in order if work.kind[t] == "cat" and masks[t].any()]
    cont_targets = [t for t in order if work.kind[t] == "cont" and masks[t].any()]

    streams = np.random.SeedSequence(seed).spawn(_MAX_ROUNDS * len(order))
    prev = work.snapshot()
    prev_oob: dict[str, float] = {}
    last_diffs: dict[str, float] = {}
    iterations = 0
    for it in range(_MAX_ROUNDS):
        oob: dict[str, float] = {}
        for c_idx, t in enumerate(order):
            m = masks[t]
            if not m.any():
                continue
            X = work.features_for(t)
            y = work.values[t]
            train = ~m
            sub_seed = int(
                streams[it * len(order) + c_idx].generate_state(1, np.uint64)[0]
            )
            if int(train.sum()) < 2:
                # a single observed cell: the constant is all we can learn
                work.values[t][m] = y[train][0]
                oob[t] = float("nan")
                continue
            rf = RandomForest(forest, classify=(work.kind[t] == "cat"))
            rf.fit(X[train], y[train], sub_seed)
            pred = rf.predict(X[m])
            work.values[t][m] = pred
            oob[t] = rf.oob_error
        iterations = it + 1
        # change criterion between successive rounds
        diffs: dict[str, float] = {}
        if cat_targets:
            changed = sum(
                int(np.sum(work.values[t][masks[t]] != prev[t][masks[t]]))
                for t in cat_targets
            )
            cells = sum(int(masks[t].sum()) for t in cat_targets)
            diffs["cat"] = changed / cells
        if cont_targets:
            num = sum(
                float(np.sum((work.values[t] - prev[t]) ** 2)) for t in cont_targets
            )
            den = sum(float(np.sum(work.values[t] ** 2)) for t in cont_targets)
            diffs["cont"] = num / den if den > 0 else 0.0
        if last_diffs and all(diffs[k] > last_diffs[k] for k in diffs):
            # criterion rose for every type present: keep the previous round
            work.values = prev
            oob = prev_oob
            iterations = it
            break
        last_diffs = diffs
        prev = work.snapshot()
        prev_oob = oob

    new_cols = []
    for t in targets:
        col = attrs[t]
        if isinstance(col, CategoricalColumn):
            new_cols.append(
                CategoricalColumn(t, col.levels, work.values[t].astype(np.int64))
            )
        else:
            new_cols.append(ContinuousColumn(t, work.values[t], col.units))
    completed = attrs.with_columns(*new_cols)
    return ImputationResult(
        completed=completed,
        provenance=provenance,
        method="MissForest",
        diagnostics={
            "iterations": iterations,
            "imputed": {t: int(masks[t].sum()) for t in targets},
            "oob": {t: (None if np.isnan(v) else float(v)) for t, v in oob.items()},
            "seed": seed,
        },
    )
