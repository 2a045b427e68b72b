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
    pair_by_dynamics,
    sweep,
    verify_equivalence,
)

SIGNAL = ScalarField((5,), [5, 1, 4, 0, 6])


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

    def test_detects_value_corruption(self):
        def corrupted(field):
            pairs = pair_by_dynamics(field)
            out = []
            for p in pairs:
                if not p.is_essential:
                    p = type(p)(p.min_vertex, p.saddle_vertex, p.birth, p.death, p.value + 0.5)
                out.append(p)
            return out

        report = verify_equivalence(SIGNAL, dynamics_fn=corrupted)
        assert not report.pairings_identical
        assert report.first_counterexample == (None, 1)
        assert report.max_value_discrepancy == 0.5

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

    def test_fault_injection_populates_counterexample(self):
        def drop_one(field):
            pairs = pair_by_dynamics(field)
            finite = [p for p in pairs if not p.is_essential]
            if finite:
                pairs = [p for p in pairs if p is not finite[-1]]
            return pairs

        specs = [GeneratorSpec("uniform_random", (24,), seed=s) for s in range(5)]
        report = sweep(specs, check_oracle=False, dynamics_fn=drop_one)
        assert not report.pairings_identical
        assert report.first_counterexample is not None
        spec, bad_min = report.first_counterexample
        assert spec == specs[0]
        assert isinstance(bad_min, int)
        # the counterexample was shrunk but still diverges
        assert report.counterexample_shape is not None
        shrunk = ScalarField(report.counterexample_shape, report.counterexample_values)
        assert not verify_equivalence(
            shrunk, check_oracle=False, dynamics_fn=drop_one
        ).pairings_identical

    def test_fail_fast_stops_early(self):
        def always_empty(field):
            return [p for p in pair_by_dynamics(field) if p.is_essential]

        specs = [GeneratorSpec("uniform_random", (24,), seed=s) for s in range(10)]
        report = sweep(specs, fail_fast=True, check_oracle=False, dynamics_fn=always_empty)
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
