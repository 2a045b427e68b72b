"""Seeded field generators and the machine-checked pairing equivalence.

The two pairings (persistence and dynamics) provably agree on Morse-like
inputs; here that is executed as a property: generate fields, run both code
paths plus the path oracle, and demand identical (minimum, saddle) sets with
bit-equal values.  Any divergence is shrunk to a small counterexample and
reported, never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .grid import Connectivity, ScalarField
from .pairing import pair_by_dynamics, pair_by_persistence
from .pathdyn import dynamics_oracle

KINDS = ("gaussian_mixture", "poly_sine_1d", "uniform_random")


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic recipe for a test field.

    ``seed`` fully determines the output.  ``amplitude`` is the value range
    for ``uniform_random``, the bump-height range for ``gaussian_mixture``
    (first bump negative, signs alternating), and an overall wiggle scale for
    ``poly_sine_1d``.
    """

    kind: str
    shape: tuple
    seed: int
    bumps: int = 3
    amplitude: tuple = (0.0, 1.0)
    connectivity: Connectivity = Connectivity.AXIS

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UsageError(f"unknown generator kind {self.kind!r}; expected one of {KINDS}")
        object.__setattr__(self, "shape", tuple(int(e) for e in self.shape))
        if not self.shape or any(e < 1 for e in self.shape):
            raise UsageError(f"bad generator shape {self.shape}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if self.bumps < 1:
            raise UsageError("bump count must be >= 1")
        lo, hi = self.amplitude
        if not (lo < hi and math.isfinite(hi - lo)):  # numpy draws from [lo, hi) by hi - lo
            raise UsageError(f"bad amplitude range {self.amplitude}")
        if self.kind == "poly_sine_1d" and len(self.shape) != 1:
            raise UsageError("poly_sine_1d generates 1D fields only")


def generate(spec: GeneratorSpec) -> ScalarField:
    """Build the field a spec describes; same spec, same bits."""
    rng = np.random.default_rng(spec.seed)
    lo, hi = (float(a) for a in spec.amplitude)
    if spec.kind == "uniform_random":
        values = rng.uniform(lo, hi, size=int(np.prod(spec.shape)))
    elif spec.kind == "gaussian_mixture":
        axes = [np.arange(e, dtype=np.float64) for e in spec.shape]
        coords = np.meshgrid(*axes, indexing="ij")
        values = np.zeros(spec.shape, dtype=np.float64)
        max_extent = float(max(spec.shape))
        for k in range(spec.bumps):
            center = [rng.uniform(0.0, e - 1.0) if e > 1 else 0.0 for e in spec.shape]
            width = rng.uniform(max_extent / 8.0 + 0.5, max_extent / 3.0 + 0.5)
            amp = rng.uniform(abs(lo) if lo != 0.0 else 0.25 * abs(hi), abs(hi))
            sign = -1.0 if k % 2 == 0 else 1.0
            d2 = np.zeros(spec.shape, dtype=np.float64)
            for c, x in zip(center, coords):
                d2 += (x - c) ** 2
            values = values + sign * amp * np.exp(-d2 / (2.0 * width * width))
        values = values.reshape(-1)
    else:  # poly_sine_1d
        n = spec.shape[0]
        t = np.linspace(-1.0, 1.0, n) if n > 1 else np.zeros(1)
        scale = hi - lo
        c4 = rng.uniform(6.0, 10.0)
        c3 = rng.uniform(-0.5, 0.5)
        c2 = rng.uniform(-2.0, 0.0)
        c1 = rng.uniform(-0.5, 0.5)
        values = c4 * t**4 + c3 * t**3 + c2 * t**2 + c1 * t
        for _ in range(3):
            amp = rng.uniform(0.02, 0.1) * scale
            omega = rng.uniform(2.0 * np.pi, 6.0 * np.pi)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            values = values + amp * np.sin(omega * t + phase)
    return ScalarField(spec.shape, values, spec.connectivity)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of checking the two pairings (and the oracle) against each other."""

    fields_tested: int
    pairings_identical: bool
    first_counterexample: tuple | None = None  # (spec or None, divergent minimum)
    max_value_discrepancy: float = 0.0
    counterexample_values: tuple | None = None
    counterexample_shape: tuple | None = None

    def to_json(self) -> dict:
        obj = {
            "fields_tested": self.fields_tested,
            "pairings_identical": self.pairings_identical,
            "max_value_discrepancy": (
                "inf" if math.isinf(self.max_value_discrepancy) else self.max_value_discrepancy
            ),
            "first_counterexample": None,
        }
        if self.first_counterexample is not None:
            spec, bad_min = self.first_counterexample
            obj["first_counterexample"] = {
                "spec": None
                if spec is None
                else {
                    "kind": spec.kind,
                    "shape": list(spec.shape),
                    "seed": spec.seed,
                    "bumps": spec.bumps,
                    "amplitude": list(spec.amplitude),
                    "connectivity": spec.connectivity.value,
                },
                "min_vertex": bad_min,
                "shape": None
                if self.counterexample_shape is None
                else list(self.counterexample_shape),
                "values": None
                if self.counterexample_values is None
                else list(self.counterexample_values),
            }
        return obj


def _divergent_minimum(field, per_pairs, dyn_pairs, check_oracle) -> tuple:
    """(divergent minimum or None, max value discrepancy)."""
    per_by_min = {p.min_vertex: p for p in per_pairs}
    dyn_by_min = {p.min_vertex: p for p in dyn_pairs}
    rank = field.total_order()[1]
    worst = 0.0
    bad = None

    def order(ms):
        return sorted(ms, key=rank.__getitem__)

    if set(per_by_min) != set(dyn_by_min):
        sym = set(per_by_min) ^ set(dyn_by_min)
        return order(sym)[0], math.inf
    for m in order(per_by_min):
        p, d = per_by_min[m], dyn_by_min[m]
        if (p.saddle_vertex, p.value) != (d.saddle_vertex, d.value):
            if bad is None:
                bad = m
            if p.value != d.value:
                diff = (
                    math.inf
                    if math.isinf(p.value) != math.isinf(d.value)
                    else abs(p.value - d.value)
                )
                worst = max(worst, diff)
            else:
                worst = max(worst, math.inf)  # same value, different saddle
        if check_oracle and bad is None:
            value, witness = dynamics_oracle(field, m)
            if (value, witness) != (p.value, p.saddle_vertex):
                bad = m
                worst = max(
                    worst, 0.0 if value == p.value else abs(value - p.value)
                )
    return bad, worst


def verify_equivalence(
    field: ScalarField,
    spec: GeneratorSpec | None = None,
    check_oracle: bool = True,
    dynamics_fn=None,
    persistence_fn=None,
) -> EquivalenceReport:
    """Run both pairings (and the path oracle) on one field and compare.

    Disagreement is a report outcome, not an error.  ``dynamics_fn`` /
    ``persistence_fn`` exist so tests can inject a corrupted pairing and watch
    the report catch it.
    """
    dynamics_fn = dynamics_fn or pair_by_dynamics
    persistence_fn = persistence_fn or pair_by_persistence
    per = persistence_fn(field)
    dyn = dynamics_fn(field)
    bad, worst = _divergent_minimum(field, per, dyn, check_oracle)
    if bad is None:
        return EquivalenceReport(fields_tested=1, pairings_identical=True)
    return EquivalenceReport(
        fields_tested=1,
        pairings_identical=False,
        first_counterexample=(spec, bad),
        max_value_discrepancy=worst,
        counterexample_values=tuple(float(x) for x in field.values),
        counterexample_shape=field.shape,
    )


def _shrink(field, spec, check_oracle, dynamics_fn, persistence_fn) -> EquivalenceReport:
    """Drop trailing leading-axis rows (vertices, in 1D) while divergence persists."""
    report = verify_equivalence(field, spec, check_oracle, dynamics_fn, persistence_fn)
    current = field
    while current.shape[0] > 2:
        rows = current.shape[0] - 1
        rest = int(np.prod(current.shape[1:]))
        smaller = ScalarField(
            (rows,) + current.shape[1:], current.values[: rows * rest], current.connectivity
        )
        attempt = verify_equivalence(smaller, spec, check_oracle, dynamics_fn, persistence_fn)
        if attempt.pairings_identical:
            break
        current, report = smaller, attempt
    return report


def sweep(
    specs,
    fail_fast: bool = False,
    check_oracle: bool = True,
    dynamics_fn=None,
    persistence_fn=None,
) -> EquivalenceReport:
    """Fold single-field reports over a spec list, one field after another.

    ``first_counterexample`` follows spec-list order; with ``fail_fast`` the
    sweep stops at the first divergence.
    """
    reports = []
    for spec in specs:
        field = generate(spec)
        report = verify_equivalence(field, spec, check_oracle, dynamics_fn, persistence_fn)
        if not report.pairings_identical:
            report = _shrink(field, spec, check_oracle, dynamics_fn, persistence_fn)
        reports.append(report)
        if fail_fast and not report.pairings_identical:
            break

    identical = all(r.pairings_identical for r in reports)
    first = next((r for r in reports if not r.pairings_identical), None)
    return EquivalenceReport(
        fields_tested=len(reports),
        pairings_identical=identical,
        first_counterexample=None if first is None else first.first_counterexample,
        max_value_discrepancy=max((r.max_value_discrepancy for r in reports), default=0.0),
        counterexample_values=None if first is None else first.counterexample_values,
        counterexample_shape=None if first is None else first.counterexample_shape,
    )
