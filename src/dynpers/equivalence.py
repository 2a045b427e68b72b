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
from .pairing import _dynamics_columns, _PairColumns, _persistence_columns
from .pathdyn import dynamics_oracle, oracle_columns

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


def _columns(pairs: _PairColumns) -> tuple:
    """``(mins, saddles, values)`` of a pairing's columns, the essential pair
    last with saddle -1."""
    mins, saddles, values = pairs.mins, pairs.saddles, pairs.values
    if pairs.essential is None:
        return mins, saddles, values
    m0 = pairs.essential[0]
    return np.append(mins, m0), np.append(saddles, -1), np.append(values, math.inf)


def _divergent_minimum(field, per_pairs, dyn_pairs, check_oracle) -> tuple:
    """(divergent minimum or None, max value discrepancy).

    Both pairings are compared minimum by minimum in total order; the first
    minimum whose pairs differ, or else whose persistence pair differs from
    the oracle, is the divergent one.  Every route disagreement counts toward
    the discrepancy, the oracle's only at that first minimum.
    """
    rank = field.total_order()[1]
    pm, ps, pv = _columns(per_pairs)
    dm, ds, dv = _columns(dyn_pairs)
    pick = np.argsort(rank[pm])
    pm, ps, pv = pm[pick], ps[pick], pv[pick]
    pick = np.argsort(rank[dm])
    dm, ds, dv = dm[pick], ds[pick], dv[pick]
    if not np.array_equal(pm, dm):
        sym = np.setxor1d(pm, dm)
        return int(sym[np.argmin(rank[sym])]), math.inf

    split = np.flatnonzero((ps != ds) | (pv != dv))
    pvs, dvs = pv[split], dv[split]
    gaps = np.full(split.size, math.inf)  # same value, different saddle: inf
    finite = (pvs != dvs) & (np.isinf(pvs) == np.isinf(dvs))
    gaps[finite] = np.abs(pvs[finite] - dvs[finite])
    worst = float(gaps.max(initial=0.0))
    first = int(split[0]) if split.size else pm.size
    if check_oracle:
        value, witness = oracle_columns(field)
        ov, ow = value[pm[:first]], witness[pm[:first]]
        wrong = np.flatnonzero((ov != pv[:first]) | (ow != ps[:first]))
        if wrong.size:
            j = int(wrong[0])
            if math.isnan(ov[j]):  # no local minimum: the oracle raises
                dynamics_oracle(field, pm[j])
            first = j
            if ov[j] != pv[j]:
                worst = max(worst, abs(float(ov[j]) - float(pv[j])))
    return (int(pm[first]) if first < pm.size else None), worst


def verify_equivalence(
    field: ScalarField, spec: GeneratorSpec | None = None, check_oracle: bool = True
) -> EquivalenceReport:
    """Run both pairings (and the path oracle) on one field and compare.

    Disagreement is a report outcome, not an error.
    """
    per = _persistence_columns(field)
    dyn = _dynamics_columns(field)
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


def _shrink(field, spec, check_oracle) -> EquivalenceReport:
    """Drop trailing leading-axis rows (vertices, in 1D) while divergence persists."""
    report = verify_equivalence(field, spec, check_oracle)
    current = field
    while current.shape[0] > 2:
        rows = current.shape[0] - 1
        rest = int(np.prod(current.shape[1:]))
        smaller = ScalarField(
            (rows,) + current.shape[1:], current.values[: rows * rest], current.connectivity
        )
        attempt = verify_equivalence(smaller, spec, check_oracle)
        if attempt.pairings_identical:
            break
        current, report = smaller, attempt
    return report


def sweep(specs, fail_fast: bool = False, check_oracle: bool = True) -> EquivalenceReport:
    """Fold single-field reports over a spec list, one field after another.

    ``first_counterexample`` follows spec-list order; with ``fail_fast`` the
    sweep stops at the first divergence.
    """
    reports = []
    for spec in specs:
        field = generate(spec)
        report = verify_equivalence(field, spec, check_oracle)
        if not report.pairings_identical:
            report = _shrink(field, spec, check_oracle)
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
