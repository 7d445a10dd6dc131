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
from .graph import AttributeTable, CategoricalColumn
from .logistic import fit_logistic, sigmoid

_MAX_ROUNDS = 10  # missForest rounds


@dataclass(frozen=True)
class ImputationResult:
    """The completed table and the imputer's diagnostics. The input table
    is left as it was, so it still shows which cells were missing."""

    completed: AttributeTable
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
) -> ImputationResult:
    """Nearest-propensity donor imputation for one target column.

    The propensity is the fitted probability of the target being missing.
    Ties in score distance break toward the smallest donor index, so the
    procedure is deterministic.
    """
    col = attrs[target]
    missing = col.missing_mask()
    if (~missing).sum() == 0:
        raise AllMissing(f"target {target!r} has no observed cells")
    if missing.sum() == 0:
        return ImputationResult(completed=attrs, diagnostics={"imputed": 0, "donors": {}})
    X, names = _design_from_covariates(attrs, covariates)
    try:
        lf = fit_logistic(X, missing.astype(np.float64), names=names)
    except Separation as exc:
        raise PropensityDegenerate(str(exc)) from exc
    scores = sigmoid(X @ lf.beta)
    observed_idx = np.flatnonzero(~missing)
    source = np.arange(attrs.n)  # the row each cell is copied from
    for i in np.flatnonzero(missing):
        gaps = np.abs(scores[observed_idx] - scores[i])
        source[i] = observed_idx[int(np.argmin(gaps))]  # first occurrence wins
    return ImputationResult(
        completed=attrs.with_columns(col.with_numeric(col.numeric()[source])),
        diagnostics={
            "imputed": int(missing.sum()),
            "donors": {int(i): int(source[i]) for i in np.flatnonzero(missing)},
            "propensity_coefficients": {
                name: float(b) for name, b in zip(names, lf.beta)
            },
        },
    )


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
    masks = {t: attrs[t].missing_mask() for t in targets}
    for t in targets:
        if (~masks[t]).sum() == 0:
            raise AllMissing(f"target {t!r} has no observed cells")
    total_missing = sum(int(m.sum()) for m in masks.values())
    if total_missing == 0:
        return ImputationResult(
            completed=attrs,
            diagnostics={"iterations": 0, "imputed": {t: 0 for t in targets}, "oob": {}},
        )

    for name in covariates:
        if name not in targets and attrs[name].missing_mask().any():
            raise CovariateMissing(f"covariate {name!r} has missing cells")
    columns = list(dict.fromkeys(list(targets) + list(covariates)))
    values = {name: attrs[name].numeric() for name in columns}
    categorical = {name: isinstance(attrs[name], CategoricalColumn) for name in columns}

    def features_for(target: str) -> np.ndarray:
        """Every other column, a categorical one as one indicator per level."""
        cols = []
        for name in columns:
            if name == target:
                continue
            v = values[name]
            if categorical[name]:
                cols.extend((v == k).astype(np.float64) for k in range(len(attrs[name].levels)))
            else:
                cols.append(v)
        return np.column_stack(cols) if cols else np.zeros((attrs.n, 1))

    # initial fill: column mode for categorical (smallest code on ties), mean for continuous
    for t in targets:
        v, m = values[t], masks[t]
        v[m] = np.argmax(np.bincount(v[~m].astype(np.int64))) if categorical[t] else np.nanmean(v)
    order = sorted(targets, key=lambda t: (int(masks[t].sum()), targets.index(t)))
    cat_targets = [t for t in order if categorical[t] and masks[t].any()]
    cont_targets = [t for t in order if not categorical[t] and masks[t].any()]

    streams = np.random.SeedSequence(seed).spawn(_MAX_ROUNDS * len(order))
    prev = {name: v.copy() for name, v in values.items()}
    prev_oob: dict[str, float] = {}
    last_diffs: dict[str, float] = {}
    iterations = 0
    for it in range(_MAX_ROUNDS):
        oob: dict[str, float] = {}
        for c_idx, t in enumerate(order):
            m = masks[t]
            if not m.any():
                continue
            X = features_for(t)
            y = values[t]
            train = ~m
            sub_seed = int(
                streams[it * len(order) + c_idx].generate_state(1, np.uint64)[0]
            )
            if int(train.sum()) < 2:
                # a single observed cell: the constant is all we can learn
                y[m] = y[train][0]
                oob[t] = float("nan")
                continue
            rf = RandomForest(forest, classify=categorical[t])
            rf.fit(X[train], y[train], sub_seed)
            y[m] = rf.predict(X[m])
            oob[t] = rf.oob_error
        iterations = it + 1
        # change criterion between successive rounds
        diffs: dict[str, float] = {}
        if cat_targets:
            changed = sum(
                int(np.sum(values[t][masks[t]] != prev[t][masks[t]]))
                for t in cat_targets
            )
            cells = sum(int(masks[t].sum()) for t in cat_targets)
            diffs["cat"] = changed / cells
        if cont_targets:
            num = sum(
                float(np.sum((values[t] - prev[t]) ** 2)) for t in cont_targets
            )
            den = sum(float(np.sum(values[t] ** 2)) for t in cont_targets)
            diffs["cont"] = num / den if den > 0 else 0.0
        if last_diffs and all(diffs[k] > last_diffs[k] for k in diffs):
            # criterion rose for every type present: keep the previous round
            values = prev
            oob = prev_oob
            iterations = it
            break
        last_diffs = diffs
        prev = {name: v.copy() for name, v in values.items()}
        prev_oob = oob

    return ImputationResult(
        completed=attrs.with_columns(*(attrs[t].with_numeric(values[t]) for t in targets)),
        diagnostics={
            "iterations": iterations,
            "imputed": {t: int(masks[t].sum()) for t in targets},
            "oob": oob,
            "seed": seed,
        },
    )
