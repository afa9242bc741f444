"""Encoding, single-node rebuild with access accounting, erasure decoding,
and single-column error location/correction, one stripe at a time.

A stripe is the p x k information array plus the r parity columns.  Parity
index 0 holds plain row sums; parity index s holds the coefficient-weighted
sums over the sets induced by the family's shift-by-s permutations.  Every
operation runs through the spec's compiled plan (`zzmds.plan`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .construct import CodeSpec
from .plan import RebuildPlan


class CodecError(ValueError):
    pass


@dataclass
class Stripe:
    spec: CodeSpec
    info: list     # p rows x k columns
    parity: list   # r columns of length p

    def copy(self) -> "Stripe":
        return Stripe(self.spec, [row[:] for row in self.info],
                      [col[:] for col in self.parity])

    def column(self, node: int) -> list:
        """The p symbols stored on one node (systematic or parity)."""
        spec = self.spec
        if node < 0 or node >= spec.n:
            raise CodecError(f"node {node} out of range")
        if node < spec.k:
            return [self.info[x][node] for x in range(spec.p)]
        return list(self.parity[node - spec.k])

    def set_column(self, node: int, values) -> None:
        spec = self.spec
        values = list(values)
        if len(values) != spec.p:
            raise CodecError("column length mismatch")
        if node < spec.k:
            for x in range(spec.p):
                self.info[x][node] = values[x]
        else:
            self.parity[node - spec.k] = values

    def __eq__(self, other):
        return (isinstance(other, Stripe) and self.spec == other.spec
                and self.info == other.info and self.parity == other.parity)


def _check_info(spec: CodeSpec, info) -> None:
    if len(info) != spec.p or any(len(row) != spec.k for row in info):
        raise CodecError(f"info must be {spec.p} x {spec.k}")
    for row in info:
        for a in row:
            spec.field.check(a)


def _columns(stripe: Stripe, erased=()) -> list:
    """The stripe's n node columns, the plan's layout.  Every symbol of a
    node not named in `erased` is checked to be a field element first."""
    spec = stripe.spec
    cols = [stripe.column(node) for node in range(spec.n)]
    for node, col in enumerate(cols):
        if node not in erased:
            for a in col:
                spec.field.check(a)
    return cols


def encode(spec: CodeSpec, info) -> Stripe:
    """Fill the r parity columns from a p x k information array."""
    _check_info(spec, info)
    info = [row[:] for row in info]
    cols = [[row[col] for row in info] for col in range(spec.k)]
    return Stripe(spec, info, spec.plan.encode(cols, 1))


def syndrome(spec: CodeSpec, stripe: Stripe) -> list:
    """Per-parity residuals: recomputed parity minus stored parity.

    All zero exactly when the stripe is consistent.
    """
    return spec.plan.syndrome(_columns(stripe), 1)


def rebuild_one(spec: CodeSpec, stripe: Stripe, erased: int) -> tuple[list, RebuildPlan]:
    """Rebuild one erased node, reading as little of the survivors as the
    family allows.  Returns (column values, RebuildPlan).

    Rows in the erased column's parity-s access set are recovered through
    parity s; every cell read is recorded once, even when several sets share
    it.  An erased parity node is recomputed from all information cells.
    """
    if erased < 0 or erased >= spec.n:
        raise CodecError(f"node {erased} out of range")
    values = spec.plan.rebuild(_columns(stripe, (erased,)), 1, erased)
    return values, spec.plan.rebuild_plan(erased)


def decode_erasures(spec: CodeSpec, stripe: Stripe, erased) -> Stripe:
    """Restore up to r erased columns.  Erased entries of `stripe` are ignored.

    Raises SingularMatrixError when the pattern is not decodable, which a
    user-supplied coefficient table can cause.
    """
    erased = sorted(set(erased))
    if any(c < 0 or c >= spec.n for c in erased):
        raise CodecError("erased node out of range")
    if len(erased) > spec.r:
        raise CodecError(f"cannot decode {len(erased)} erasures with r={spec.r}")
    out = stripe.copy()
    if erased:
        for node, values in spec.plan.decode(_columns(stripe, erased), 1, erased).items():
            out.set_column(node, values)
    return out


@dataclass
class ErrorScan:
    status: str          # 'clean' | 'corrected' | 'uncorrectable'
    location: object     # corrected node index, or None
    stripe: Stripe


def decode_error(spec: CodeSpec, stripe: Stripe) -> ErrorScan:
    """Locate and correct at most one corrupted column.

    Zero syndromes mean a clean stripe.  Otherwise each node in turn is
    erased and decoded from the others; the one whose replacement zeroes the
    syndrome is the corrupted one.  No such node means more than one column
    is bad.
    """
    cols = _columns(stripe)
    if not any(map(any, spec.plan.syndrome(cols, 1))):
        return ErrorScan("clean", None, stripe.copy())
    found = spec.plan.locate(cols)
    if found is None:
        return ErrorScan("uncorrectable", None, stripe.copy())
    node, values = found
    out = stripe.copy()
    out.set_column(node, values)
    return ErrorScan("corrected", node, out)
