import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynpers import (
    GeneratorSpec,
    ScalarField,
    UsageError,
    generate,
    local_minima,
    sweep,
    verify_equivalence,
)
from dynpers import equivalence
from dynpers.pairing import _dynamics_columns

SIGNAL = ScalarField((5,), [5, 1, 4, 0, 6])
PAIR_COLUMNS = ("mins", "saddles", "births", "deaths", "values")


def inject_dynamics(monkeypatch, route):
    """Make the checks run ``route`` in place of the dynamics pairing."""
    monkeypatch.setattr(equivalence, "_dynamics_columns", route)


def drop_one(field):
    """The dynamics pairing without its last finite pair."""
    pairs = _dynamics_columns(field)
    return dataclasses.replace(pairs, **{k: getattr(pairs, k)[:-1] for k in PAIR_COLUMNS})


class TestGenerate:
    def test_determinism(self):
        spec = GeneratorSpec("uniform_random", (8, 8), seed=7)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.values, b.values)

    def test_gaussian_single_negative_bump_has_one_minimum(self):
        for seed in range(12):
            spec = GeneratorSpec("gaussian_mixture", (16, 16), seed=seed, bumps=1)
            assert len(local_minima(generate(spec))) == 1

    def test_poly_sine_ends_are_not_minima(self):
        for seed in range(12):
            spec = GeneratorSpec("poly_sine_1d", (128,), seed=seed)
            minima = set(local_minima(generate(spec)))
            assert 0 not in minima and 127 not in minima

    def test_uniform_respects_amplitude(self):
        spec = GeneratorSpec("uniform_random", (100,), seed=3, amplitude=(-2.0, 2.0))
        f = generate(spec)
        assert f.values.min() >= -2.0 and f.values.max() <= 2.0

    def test_validation(self):
        with pytest.raises(UsageError):
            GeneratorSpec("perlin", (8,), seed=0)
        with pytest.raises(UsageError):
            GeneratorSpec("uniform_random", (8,), seed=0, bumps=0)
        with pytest.raises(UsageError):
            GeneratorSpec("poly_sine_1d", (8, 8), seed=0)
        with pytest.raises(UsageError):
            GeneratorSpec("uniform_random", (8,), seed=0, amplitude=(1.0, 1.0))


class TestVerifyEquivalence:
    def test_signal_identical(self):
        report = verify_equivalence(SIGNAL)
        assert report.pairings_identical
        assert report.max_value_discrepancy == 0.0
        assert report.first_counterexample is None

    def test_single_minimum_trivial(self):
        report = verify_equivalence(ScalarField((4,), [0, 1, 2, 3]))
        assert report.pairings_identical

    def test_3x3_identical(self):
        g = ScalarField((3, 3), [9, 8, 10, 2, 7, 3, 11, 12, 13])
        assert verify_equivalence(g).pairings_identical

    def test_detects_value_corruption(self, monkeypatch):
        def corrupted(field):
            pairs = _dynamics_columns(field)
            return dataclasses.replace(pairs, values=pairs.values + 0.5)

        inject_dynamics(monkeypatch, corrupted)
        report = verify_equivalence(SIGNAL)
        assert not report.pairings_identical
        assert report.first_counterexample == (None, 1)
        assert report.max_value_discrepancy == 0.5

    def test_oracle_on_the_nested_comb(self):
        # every minimum's cheapest exit climbs past all shallower minima: a
        # per-minimum search walks Theta(n) vertices for each of them
        k = 8001
        values = np.empty(2 * k - 1)
        values[0::2] = -np.arange(k)
        jitter = np.random.default_rng(8001).uniform(0.0, 0.0005, k - 1)
        values[1::2] = 0.5 + 0.001 * np.arange(k - 1) + jitter
        field = ScalarField(values.shape, values)
        assert len(local_minima(field)) == k
        assert verify_equivalence(field, check_oracle=True).pairings_identical

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        conn=st.sampled_from(["axis", "full"]),
        levels=st.integers(2, 4),
        data=st.data(),
    )
    def test_oracle_agrees_on_few_level_fields(self, shape, conn, levels, data):
        # plateaus everywhere: ties are resolved by the index alone
        n = int(np.prod(shape))
        vals = data.draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
        field = ScalarField(tuple(shape), [float(v) for v in vals], conn)
        assert verify_equivalence(field, check_oracle=True).pairings_identical


class TestSweep:
    def test_empty_spec_list_vacuously_identical(self):
        report = sweep([])
        assert report.fields_tested == 0
        assert report.pairings_identical

    def test_counts_fields(self):
        specs = [GeneratorSpec("uniform_random", (64,), seed=s) for s in range(200)]
        report = sweep(specs, check_oracle=False)
        assert report.fields_tested == 200
        assert report.pairings_identical

    def test_fault_injection_populates_counterexample(self, monkeypatch):
        inject_dynamics(monkeypatch, drop_one)
        specs = [GeneratorSpec("uniform_random", (24,), seed=s) for s in range(5)]
        report = sweep(specs, check_oracle=False)
        assert not report.pairings_identical
        assert report.first_counterexample is not None
        spec, bad_min = report.first_counterexample
        assert spec == specs[0]
        assert isinstance(bad_min, int)
        # the counterexample was shrunk but still diverges
        assert report.counterexample_shape is not None
        shrunk = ScalarField(report.counterexample_shape, report.counterexample_values)
        assert not verify_equivalence(shrunk, check_oracle=False).pairings_identical

    # uniform_random seed 0's first values; the shrinker keeps a prefix
    SHRUNK_1D = (0.6369616873214543, 0.2697867137638703, 0.04097352393619469,
                 0.016527635528529094, 0.8132702392002724, 0.9127555772777217,
                 0.6066357757671799)
    SHRUNK_2D = SHRUNK_1D + (0.7294965609839984, 0.5436249914654229, 0.9350724237877682,
                             0.8158535541215322, 0.002738500170148095, 0.8574042765875693,
                             0.033585575305464355, 0.7296554464299441)

    @pytest.mark.parametrize("shape, shrunk_shape, bad_min, values", [
        ((24,), (7,), 6, SHRUNK_1D),
        ((6, 5), (3, 5), 3, SHRUNK_2D),
    ], ids=["1d", "2d"])
    def test_shrinker_keeps_the_least_diverging_prefix(self, shape, shrunk_shape, bad_min,
                                                       values, monkeypatch):
        inject_dynamics(monkeypatch, drop_one)
        spec = GeneratorSpec("uniform_random", shape, seed=0)
        report = sweep([spec], check_oracle=False)
        assert report.first_counterexample == (spec, bad_min)
        assert report.counterexample_shape == shrunk_shape
        assert report.counterexample_values == values

    def test_fail_fast_stops_early(self, monkeypatch):
        def always_empty(field):  # the essential pair only
            pairs = _dynamics_columns(field)
            return dataclasses.replace(pairs, **{k: getattr(pairs, k)[:0] for k in PAIR_COLUMNS})

        inject_dynamics(monkeypatch, always_empty)
        specs = [GeneratorSpec("uniform_random", (24,), seed=s) for s in range(10)]
        report = sweep(specs, fail_fast=True, check_oracle=False)
        assert report.fields_tested == 1

    def test_reports_deterministic(self):
        specs = [GeneratorSpec("gaussian_mixture", (12, 12), seed=s, bumps=4) for s in range(6)]
        a = sweep(specs, check_oracle=False)
        b = sweep(specs, check_oracle=False)
        assert a == b

    def test_oracle_checked_sweep(self):
        specs = [GeneratorSpec("uniform_random", (5, 5), seed=s) for s in range(5)]
        report = sweep(specs, check_oracle=True)
        assert report.pairings_identical

    def test_report_json_shape(self):
        report = sweep([GeneratorSpec("uniform_random", (16,), seed=1)], check_oracle=False)
        obj = report.to_json()
        assert obj["fields_tested"] == 1
        assert obj["pairings_identical"] is True
        assert obj["first_counterexample"] is None

    def test_full_scale_bounds(self):
        # the largest shapes the equivalence property is claimed for
        specs = [
            GeneratorSpec("poly_sine_1d", (1024,), seed=0),
            GeneratorSpec("uniform_random", (1024,), seed=1),
            GeneratorSpec("gaussian_mixture", (64, 64), seed=2, bumps=8),
            GeneratorSpec("uniform_random", (64, 64), seed=3),
            GeneratorSpec("gaussian_mixture", (64, 64), seed=4, bumps=8, connectivity="full"),
            GeneratorSpec("uniform_random", (64, 64), seed=5, connectivity="full"),
        ]
        assert sweep(specs, check_oracle=False).pairings_identical
