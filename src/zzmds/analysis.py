"""Closed-form rebuild-ratio predictions and reconciliation with measured
access counts.  Every ratio is an exact Fraction; nothing here floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .construct import CodeSpec
from .perms import access_union, pair_constant


def lower_bound_ratio(n: int, k: int) -> Fraction:
    """Information-theoretic floor on the fraction read to rebuild one node."""
    if n <= k:
        raise ValueError("need n > k")
    return Fraction(1, n - k)


def _pair_union_size(family, vi: int, ui: int) -> int:
    """Rows read in column ui when rebuilding column vi (one stripe).

    Closed form r^m / gcd(r, v.(v-u) - 1) for nonzero pairs; pairs touching
    the designated zero vector fall back to explicit set construction.
    """
    r = family.r
    v = family.vectors[vi]
    u = family.vectors[ui]
    if family.is_zero(vi) or family.is_zero(ui):
        return len(access_union(v, u, v_is_zero=family.is_zero(vi)))
    return r ** family.m // gcd(r, pair_constant(v, u))


def ratio_formula_terms(spec: CodeSpec):
    """Pairwise extra-access terms: rows read in column u beyond the r^(m-1)
    minimum when rebuilding column v.  Aggregating them reproduces
    predicted_ratio for undisplicated codes."""
    if spec.s != 1:
        raise ValueError("formula terms are defined for s=1 codes")
    fam = spec.family
    base = fam.p // fam.r
    size = fam.size
    return [[0 if ui == vi else _pair_union_size(fam, vi, ui) - base
             for ui in range(size)] for vi in range(size)]


def _base_predicted(spec: CodeSpec) -> Fraction:
    fam = spec.family
    K = fam.size
    p = fam.p
    total = 0
    for vi in range(K):
        for ui in range(K):
            if ui != vi:
                total += _pair_union_size(fam, vi, ui)
        total += p  # r parities at p/r cells each
    return Fraction(total, K * (K - 1 + spec.r) * p)


def predicted_ratio(spec: CodeSpec) -> Fraction:
    """Exact predicted rebuilding ratio.

    For duplicated codes (s >= 2) this is the duplication upper bound
    R * (1 + (s-1)/(s*K+1)) on the base family's exact ratio R; use
    predicted_is_bound to tell the two apart.
    """
    base = _base_predicted(spec)
    if spec.s == 1:
        return base
    K = spec.base_k
    return base * (1 + Fraction(spec.s - 1, spec.s * K + 1))


def predicted_is_bound(spec: CodeSpec) -> bool:
    return spec.s > 1


def asymptotic_ratio(family_kind: str, m: int, w: int = None, r: int = 2) -> Fraction:
    """Reference large-m approximations: 1/r for the standard family,
    1/2 + w^2/(2m) for block-weight families."""
    if family_kind == "standard":
        return Fraction(1, r)
    if family_kind == "weightw":
        if w is None:
            raise ValueError("weightw asymptotic needs w")
        return Fraction(1, 2) + Fraction(w * w, 2 * m)
    raise ValueError(f"no asymptotic form for family {family_kind!r}")


def measure_rebuild(spec: CodeSpec):
    """The rebuild accounting of every systematic target, read from the
    compiled plan (access patterns are data-independent).

    Returns (per-target RebuildPlans, average measured ratio).
    """
    plans = [spec.plan.rebuild_plan(col) for col in range(spec.k)]
    total = sum(plan.cells_read for plan in plans)
    average = Fraction(total, spec.k * spec.p * (spec.n - 1))
    return plans, average


def measured_ratio(spec: CodeSpec) -> Fraction:
    return measure_rebuild(spec)[1]


# Rebuild accounting touches every systematic target; skip it by default on
# instances past desk scale and report the formula value alone.
MAX_MEASURE_CELLS = 4096


@dataclass
class RatioReport:
    spec: CodeSpec
    predicted: Fraction
    is_bound: bool
    measured: Fraction          # None when measurement was skipped
    lower_bound: Fraction
    per_target_cells: list      # cells read per erased systematic node

    def as_kv_lines(self):
        lines = [
            f"ratio_predicted_num={self.predicted.numerator}",
            f"ratio_predicted_den={self.predicted.denominator}",
            f"ratio_predicted_is_bound={int(self.is_bound)}",
            f"ratio_lower_bound_num={self.lower_bound.numerator}",
            f"ratio_lower_bound_den={self.lower_bound.denominator}",
        ]
        if self.measured is not None:
            lines[2:2] = [
                f"ratio_measured_num={self.measured.numerator}",
                f"ratio_measured_den={self.measured.denominator}",
            ]
        for col, cells in enumerate(self.per_target_cells):
            lines.append(f"cells_to_rebuild_node_{col}={cells}")
        return lines

    def as_table(self) -> str:
        def fmt(x):
            if x.denominator == 1:
                return str(x)
            # three decimals by integer rounding; ratios never float
            mills = (1000 * x.numerator + x.denominator // 2) // x.denominator
            return f"{x} ≈ {mills // 1000}.{mills % 1000:03d}"

        label = "predicted (upper bound)" if self.is_bound else "predicted"
        rows = [(label, fmt(self.predicted))]
        if self.measured is not None:
            rows.append(("measured", fmt(self.measured)))
        rows.append(("lower bound", fmt(self.lower_bound)))
        width = max(len(a) for a, _ in rows)
        out = [f"{a.ljust(width)}  {b}" for a, b in rows]
        if self.per_target_cells:
            out.append(f"{'cells/stripe per target'.ljust(width)}  "
                       + " ".join(str(c) for c in self.per_target_cells))
        return "\n".join(out)


def ratio_report(spec: CodeSpec) -> RatioReport:
    if spec.p * spec.k <= MAX_MEASURE_CELLS:
        plans, measured = measure_rebuild(spec)
        cells = [plan.cells_read for plan in plans]
    else:
        measured, cells = None, []
    return RatioReport(
        spec=spec,
        predicted=predicted_ratio(spec),
        is_bound=predicted_is_bound(spec),
        measured=measured,
        lower_bound=lower_bound_ratio(spec.n, spec.k),
        per_target_cells=cells,
    )
