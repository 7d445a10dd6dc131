from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats as sps

from ergmkit.errors import ConfigError
from ergmkit.model import Edges, ModelSpec, NodeMatch
from ergmkit.synth import (
    CategoricalSpec,
    ContinuousSpec,
    MissingSpec,
    SynthSpec,
    generate,
    spec_from_dict,
    spec_to_dict,
)


def base_spec(**overrides):
    defaults = dict(
        n=40,
        columns={
            "sex": CategoricalSpec(("male", "female"), (0.7, 0.3)),
            "age": ContinuousSpec(35.0, 7.0),
        },
        model=ModelSpec([Edges()]),
        theta=(-2.0,),
        missing=(),
        seed=11,
    )
    defaults.update(overrides)
    return SynthSpec(**defaults)


class TestGenerate:
    def test_zero_rate_all_observed(self):
        spec = base_spec(missing=(MissingSpec("sex", 0.0),))
        _, attrs, _ = generate(spec)
        assert not attrs["sex"].missing_mask().any()

    def test_zero_theta_half_density(self):
        spec = base_spec(n=30, theta=(0.0,), seed=4)
        g, _, _ = generate(spec)
        D = 30 * 29 // 2
        se = math.sqrt(D * 0.25)
        assert abs(g.edge_count - D / 2) <= 4 * se

    def test_published_male_marginal(self):
        # target marginal from the published table: 79% male at n = 356
        spec = base_spec(
            n=356,
            columns={"sex": CategoricalSpec(("male", "female"), (0.79, 0.21))},
            seed=8,
        )
        _, attrs, _ = generate(spec)
        frac = float(np.mean(attrs["sex"].codes == 0))
        se = math.sqrt(0.79 * 0.21 / 356)
        assert abs(frac - 0.79) <= 3 * se

    def test_seed_determinism(self):
        a = generate(base_spec())
        b = generate(base_spec())
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_different_seeds_differ(self):
        a = generate(base_spec(seed=1))
        b = generate(base_spec(seed=2))
        assert a[0] != b[0]

    def test_mcar_independent_of_true_values(self):
        # pool missing-by-value contingency over 100 seeds; MCAR holds
        miss_by_level = np.zeros((2, 2))
        for seed in range(100):
            spec = base_spec(
                n=60,
                missing=(MissingSpec("sex", 0.25, "mcar"),),
                seed=1000 + seed,
            )
            _, attrs, _ = generate(spec)
            missing = attrs["sex"].missing_mask()
            # recover the true values by regenerating without missingness
            ref_spec = base_spec(n=60, missing=(), seed=1000 + seed)
            _, truth, _ = generate(ref_spec)
            for lev in (0, 1):
                sel = truth["sex"].codes == lev
                miss_by_level[lev, 0] += int(np.sum(missing[sel]))
                miss_by_level[lev, 1] += int(np.sum(~missing[sel]))
        _, p, _, _ = sps.chi2_contingency(miss_by_level)
        assert p > 0.01

    def test_mar_rate_calibrated_and_covariate_dependent(self):
        spec = base_spec(
            n=400,
            missing=(MissingSpec("sex", 0.3, "mar", covariate="age", slope=2.5),),
            seed=3,
        )
        _, attrs, _ = generate(spec)
        missing = attrs["sex"].missing_mask()
        rate = float(np.mean(missing))
        assert abs(rate - 0.3) <= 0.08
        ages = generate(base_spec(n=400, seed=3))[1]["age"].values
        older = ages > np.median(ages)
        assert float(np.mean(missing[older])) > float(np.mean(missing[~older]))

    def test_homophily_generation_shifts_match_statistic(self):
        model = ModelSpec([Edges(), NodeMatch("sex", differential=False)])
        neutral = base_spec(n=50, model=model, theta=(-2.0, 0.0), seed=6)
        homophilous = base_spec(n=50, model=model, theta=(-2.0, 1.8), seed=6)
        from ergmkit.model import statistics

        g0, a0, _ = generate(neutral)
        g1, a1, _ = generate(homophilous)
        frac0 = statistics(g0, a0, model)[1] / max(1, g0.edge_count)
        frac1 = statistics(g1, a1, model)[1] / max(1, g1.edge_count)
        assert frac1 > frac0


class TestSpecValidation:
    def test_bad_probabilities(self):
        with pytest.raises(ConfigError):
            CategoricalSpec(("a", "b"), (0.5, 0.6))

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            MissingSpec("sex", 1.0)

    def test_mar_needs_covariate(self):
        with pytest.raises(ConfigError):
            MissingSpec("sex", 0.2, "mar")

    def test_round_trip(self):
        spec = base_spec(missing=(MissingSpec("sex", 0.2, "mar", "age", 1.5),))
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec
