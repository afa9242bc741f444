"""What the data commands never run: closed-form rebuild-ratio predictions,
their reconciliation with measured access counts, and the exhaustive MDS
verifier.  The prediction is closed-form for every pair of columns, the
designated zero vector's included; nothing here walks the rows.  Every ratio
is an exact Fraction; nothing here floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .construct import CodeSpec
from .perms import pair_constant

# The MDS verifier solves one system per erasure pattern and the measured
# ratio walks every systematic target; both stay at desk scale.
MAX_DESK_CELLS = 4096


def lower_bound_ratio(n: int, k: int) -> Fraction:
    """Information-theoretic floor on the fraction read to rebuild one node."""
    if n <= k:
        raise ValueError("need n > k")
    return Fraction(1, n - k)


def _pair_union_size(family, vi: int, ui: int) -> int:
    """Rows read in column ui when rebuilding column vi (one stripe), in
    closed form: r^m / gcd(r, c).  For nonzero v, c is the pair constant
    v.(v-u) - 1, u the zero vector included; the designated zero vector's
    access sets follow the all-ones functional, which makes c = sum(u) - 1.
    """
    v, u = family.vectors[vi], family.vectors[ui]
    c = sum(u.digits) - 1 if family.is_zero(vi) else pair_constant(v, u)
    return family.p // gcd(family.r, c)


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


def measure_rebuild(spec: CodeSpec):
    """The rebuild accounting of every systematic target, read from the
    compiled plan (access patterns are data-independent).

    Returns (per-target RebuildPlans, average measured ratio).
    """
    plans = [spec.plan.rebuild_plan(col) for col in range(spec.k)]
    total = sum(plan.cells_read for plan in plans)
    average = Fraction(total, spec.k * spec.p * (spec.n - 1))
    return plans, average


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
    if spec.p * spec.k <= MAX_DESK_CELLS:
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


class MdsReport(NamedTuple):
    is_mds: bool
    failing_pattern: tuple  # node indices, or None
    patterns_checked: int

    def __bool__(self):
        return self.is_mds


def verify_mds(spec: CodeSpec) -> MdsReport:
    """Exhaustively check decodability of every pattern of at most r erasures.

    Each pattern is judged by the rank of its surviving parity equations
    (`CodePlan.decodable`), the same equations and elimination the decoder
    solves; `tests/oracles.py` checks the verdicts by exhaustive search.
    """
    if spec.p * spec.k > MAX_DESK_CELLS:
        raise ValueError(f"instance too large for exhaustive verification "
                         f"(p*k = {spec.p * spec.k} > {MAX_DESK_CELLS})")
    checked = 0
    for size in range(1, spec.r + 1):
        for pattern in combinations(range(spec.n), size):
            checked += 1
            if not spec.plan.decodable(pattern):
                return MdsReport(False, pattern, checked)
    return MdsReport(True, None, checked)
