from __future__ import annotations

import copy

import numpy as np
import pytest

from ergmkit.errors import AllMissing, CovariateMissing, PropensityDegenerate
from ergmkit.forest import ForestConfig
from ergmkit.graph import AttributeTable, categorical, continuous
from ergmkit.imputation import impute_missforest, impute_psm

from conftest import rng


def table_with_gaps(seed=0, n=60, missing_rate=0.2):
    r = rng(seed)
    sex = [("m", "f")[int(k)] for k in r.integers(0, 2, size=n)]
    age = r.normal(40, 8, size=n)
    # target is a deterministic function of sex
    living = [("own" if s == "m" else "rent") for s in sex]
    gaps = r.random(n) < missing_rate
    living_obs = [None if gaps[i] else living[i] for i in range(n)]
    attrs = AttributeTable(
        [
            categorical("sex", ["m", "f"], sex),
            continuous("age", age),
            categorical("living", ["own", "rent"], living_obs),
        ]
    )
    return attrs, living, gaps


class TestPsm:
    def test_no_missing_returns_input_unchanged(self):
        attrs, _, _ = table_with_gaps(missing_rate=0.0)
        res = impute_psm(attrs, "living", ["sex", "age"])
        assert res.completed is attrs
        assert res.diagnostics["imputed"] == 0

    def test_duplicate_covariates_copy_the_duplicate_donor(self):
        # row 7 is missing and duplicates row 2's covariates exactly, so its
        # propensity ties at distance zero and row 2 must be the donor
        attrs, _, gaps = table_with_gaps(seed=5, n=30)
        sex = attrs["sex"].labels()
        age = attrs["age"].values.copy()
        living = attrs["living"].labels()
        sex[7], age[7], living[7] = sex[2], age[2], None
        living[2] = "own"
        attrs = AttributeTable(
            [
                categorical("sex", ["m", "f"], sex),
                continuous("age", age),
                categorical("living", ["own", "rent"], living),
            ]
        )
        res = impute_psm(attrs, "living", ["sex", "age"])
        assert res.diagnostics["donors"][7] == 2
        assert res.completed["living"].labels()[7] == "own"

    def test_all_missing_rejected(self):
        attrs = AttributeTable(
            [
                categorical("sex", ["m", "f"], ["m", "f"]),
                categorical("living", ["own", "rent"], [None, None]),
            ]
        )
        with pytest.raises(AllMissing):
            impute_psm(attrs, "living", ["sex"])

    def test_covariate_with_missing_rejected(self):
        attrs = AttributeTable(
            [
                categorical("sex", ["m", "f"], ["m", None, "f"]),
                categorical("living", ["own", "rent"], ["own", None, "rent"]),
            ]
        )
        with pytest.raises(CovariateMissing):
            impute_psm(attrs, "living", ["sex"])

    def test_perfectly_predicted_missingness_degenerate(self):
        # missing exactly when sex is f: complete separation
        sex = ["m"] * 10 + ["f"] * 10
        living = ["own"] * 10 + [None] * 10
        attrs = AttributeTable(
            [
                categorical("sex", ["m", "f"], sex),
                categorical("living", ["own", "rent"], living),
            ]
        )
        with pytest.raises(PropensityDegenerate):
            impute_psm(attrs, "living", ["sex"])

    def test_donor_map_covers_all_imputed_cells(self):
        attrs, _, gaps = table_with_gaps(seed=5)
        res = impute_psm(attrs, "living", ["sex", "age"])
        missing_idx = set(np.flatnonzero(gaps).tolist())
        assert set(res.diagnostics["donors"]) == missing_idx
        for i, donor in res.diagnostics["donors"].items():
            assert not gaps[donor]
            assert (
                res.completed["living"].labels()[i]
                == attrs["living"].labels()[donor]
            )

    def test_observed_cells_bit_identical(self):
        attrs, _, gaps = table_with_gaps(seed=6)
        res = impute_psm(attrs, "living", ["sex", "age"])
        before = attrs["living"].codes
        after = res.completed["living"].codes
        np.testing.assert_array_equal(before[~gaps], after[~gaps])

    def test_deterministic(self):
        attrs, _, _ = table_with_gaps(seed=7)
        a = impute_psm(attrs, "living", ["sex", "age"])
        b = impute_psm(attrs, "living", ["sex", "age"])
        assert a.completed == b.completed
        assert a.diagnostics["donors"] == b.diagnostics["donors"]


FOREST = ForestConfig(trees=25)


class TestMissForest:
    def test_no_missing_zero_iterations(self):
        attrs, _, _ = table_with_gaps(missing_rate=0.0)
        res = impute_missforest(attrs, ["living"], forest=FOREST, seed=0)
        assert res.completed is attrs
        assert res.diagnostics["iterations"] == 0

    def test_learnable_target_beats_mode_baseline(self):
        wins = 0
        trials = 12
        for seed in range(trials):
            attrs, truth, gaps = table_with_gaps(seed=100 + seed, n=80)
            if gaps.sum() == 0:
                trials -= 1
                continue
            res = impute_missforest(attrs, ["living"], forest=FOREST, seed=seed)
            imputed = np.array(res.completed["living"].labels())[gaps]
            acc = float(np.mean(imputed == np.array(truth)[gaps]))
            observed = [v for v, m in zip(truth, gaps) if not m]
            mode = max(set(observed), key=observed.count)
            base = float(np.mean(np.array(truth)[gaps] == mode))
            if acc > base:
                wins += 1
        assert wins >= trials - 1

    def test_degenerate_forest_imputes_mode(self):
        attrs, _, gaps = table_with_gaps(seed=9, n=40)
        res = impute_missforest(
            attrs,
            ["living"],
            forest=ForestConfig(trees=1, min_leaf=40),
            seed=1,
        )
        observed = attrs["living"].codes[~gaps]
        mode_code = int(np.argmax(np.bincount(observed)))
        imputed = res.completed["living"].codes[gaps]
        assert np.all(imputed == mode_code)

    def test_degenerate_forest_imputes_mean_for_continuous(self):
        r = rng(11)
        n = 30
        x = r.normal(size=n)
        target = x * 2.0
        gaps = r.random(n) < 0.25
        vals = [None if gaps[i] else float(target[i]) for i in range(n)]
        attrs = AttributeTable(
            [continuous("x", x), continuous("y", vals)]
        )
        res = impute_missforest(
            attrs, ["y"], forest=ForestConfig(trees=1, min_leaf=n), seed=2
        )
        observed_mean = float(np.nanmean(attrs["y"].values))
        np.testing.assert_allclose(
            res.completed["y"].values[gaps], observed_mean, atol=1e-12
        )

    def test_observed_cells_bit_identical(self):
        attrs, _, gaps = table_with_gaps(seed=12)
        res = impute_missforest(attrs, ["living"], forest=FOREST, seed=0)
        np.testing.assert_array_equal(
            attrs["living"].codes[~gaps], res.completed["living"].codes[~gaps]
        )

    def test_imputed_values_in_observed_level_set(self):
        attrs, _, gaps = table_with_gaps(seed=13)
        res = impute_missforest(attrs, ["living"], forest=FOREST, seed=0)
        observed_codes = set(attrs["living"].codes[~gaps].tolist())
        assert set(res.completed["living"].codes[gaps].tolist()) <= observed_codes

    def test_seed_determinism(self):
        attrs, _, _ = table_with_gaps(seed=14)
        a = impute_missforest(attrs, ["living"], forest=FOREST, seed=5)
        b = impute_missforest(attrs, ["living"], forest=FOREST, seed=5)
        assert a.completed == b.completed
        assert a.diagnostics == b.diagnostics
        # a continuous target too, bit for bit: no state carries over between fits
        age = [None if i % 7 == 0 else v for i, v in enumerate(attrs["age"].values)]
        blank = attrs.with_columns(continuous("age", age))
        a, b = (impute_missforest(blank, ["age", "living"], forest=FOREST, seed=5) for _ in "ab")
        assert a.completed["age"].values.tobytes() == b.completed["age"].values.tobytes()
        assert a.completed == b.completed
        assert a.diagnostics == b.diagnostics

    def test_all_missing_rejected(self):
        attrs = AttributeTable(
            [
                categorical("sex", ["m", "f"], ["m", "f", "m"]),
                categorical("living", ["own", "rent"], [None, None, None]),
            ]
        )
        with pytest.raises(AllMissing):
            impute_missforest(attrs, ["living"], forest=FOREST, seed=0)

    def test_covariate_with_missing_rejected(self):
        attrs, _, _ = table_with_gaps(seed=18)
        attrs = attrs.with_columns(continuous("age", [None] + attrs["age"].values[1:].tolist()))
        with pytest.raises(CovariateMissing, match="'age'"):
            impute_missforest(attrs, ["living"], forest=FOREST, seed=0)

    def test_mixed_targets_complete(self):
        r = rng(15)
        n = 50
        sex = [("m", "f")[int(k)] for k in r.integers(0, 2, size=n)]
        age = r.normal(40, 5, size=n)
        age_gaps = r.random(n) < 0.2
        liv_gaps = r.random(n) < 0.2
        attrs = AttributeTable(
            [
                categorical("sex", ["m", "f"], sex),
                continuous("age", [None if age_gaps[i] else age[i] for i in range(n)]),
                categorical(
                    "living",
                    ["own", "rent"],
                    [None if liv_gaps[i] else ("own" if s == "m" else "rent") for i, s in enumerate(sex)],
                ),
            ]
        )
        res = impute_missforest(attrs, ["age", "living"], forest=FOREST, seed=3)
        assert not res.completed["age"].missing_mask().any()
        assert not res.completed["living"].missing_mask().any()


def paper_like_table(blank_age: bool) -> AttributeTable:
    """n = 120 with sex, education, age and living, as in the paper's data.

    Living depends on age; a 15% MCAR share of living is blank, or with
    ``blank_age`` a 10% share of age instead.
    """
    r = rng(2021)
    n = 120
    sex = r.integers(0, 2, size=n)
    education = r.integers(0, 3, size=n)
    age = np.round(r.normal(38.0, 11.0, size=n), 1)
    own = (age > 40) & (r.random(n) < 0.7)
    living = np.where(own, 0, r.integers(1, 3, size=n))
    living_gaps = r.random(n) < 0.15
    age_gaps = r.random(n) < 0.1
    sexes = ("male", "female")
    levels = ("less", "high school", "more")
    places = ("own place", "someone else", "homeless")
    return AttributeTable(
        [
            categorical("sex", list(sexes), [sexes[k] for k in sex]),
            categorical("education", list(levels), [levels[k] for k in education]),
            continuous(
                "age",
                [None if blank_age and age_gaps[i] else float(age[i]) for i in range(n)],
            ),
            categorical(
                "living",
                list(places),
                [
                    None if not blank_age and living_gaps[i] else places[living[i]]
                    for i in range(n)
                ],
            ),
        ]
    )


class TestGoldenMissForest:
    # literal outputs pin the bootstrap and feature streams, the split search
    # (ties, thresholds, summation order) and the stopping rule
    def test_categorical_target(self):
        attrs = paper_like_table(blank_age=False)
        res = impute_missforest(attrs, ["living"], forest=ForestConfig(trees=10), seed=7)
        gaps = attrs["living"].missing_mask()
        assert res.completed["living"].codes[gaps].tolist() == [
            1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 0, 1, 2, 1, 1, 1, 0, 2, 2, 1, 0, 1,
        ]
        assert res.diagnostics["iterations"] == 3
        assert res.diagnostics["oob"] == {"living": 0.4948453608247423}

    def test_regression_target(self):
        attrs = paper_like_table(blank_age=True)
        res = impute_missforest(attrs, ["age"], forest=ForestConfig(trees=10), seed=7)
        gaps = attrs["age"].missing_mask()
        assert res.completed["age"].values[gaps].tolist() == [
            34.843085164835166,
            34.843085164835166,
            30.6734267954268,
            35.37119642857142,
            49.749464285714296,
            30.6734267954268,
            30.6734267954268,
            30.6734267954268,
        ]
        assert res.diagnostics["iterations"] == 2
        assert res.diagnostics["oob"] == {"age": 100.55834844690669}


class TestInputUnchanged:
    # the input table is the record of which cells were missing
    @pytest.mark.parametrize("blank_age", [False, True])
    def test_psm(self, blank_age):
        attrs = paper_like_table(blank_age)
        before = copy.deepcopy(attrs)
        target = "age" if blank_age else "living"
        res = impute_psm(attrs, target, [c for c in attrs.names if c != target])
        assert attrs == before and res.completed != before

    def test_missforest(self):
        attrs = paper_like_table(blank_age=True)
        living = attrs["living"].labels()
        attrs = attrs.with_columns(categorical("living", attrs["living"].levels, [None] + living[1:]))
        before = copy.deepcopy(attrs)
        res = impute_missforest(attrs, ["age", "living"], forest=ForestConfig(trees=5), seed=1)
        assert attrs == before and res.completed != before
        assert not any(res.completed[t].missing_mask().any() for t in ("age", "living"))
