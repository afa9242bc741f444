"""Encoding, single-node rebuild with access accounting, erasure decoding,
and single-column error location/correction, one checked stripe at a time.

A stripe is a list of n node columns of p symbols each, the k information
columns first, then the r parity columns, each a list of ints.  Parity index
0 holds plain row sums; parity index s holds the coefficient-weighted sums
over the sets induced by the family's shift-by-s permutations.  Every
operation runs through the spec's compiled plan (`zzmds.plan`), the kernel
the CLI runs over whole node files, here with one stripe: the checked
columns are turned into the plan's node columns and the results back into
lists.  Error correction is the plan's `repair` with no erasures.
"""

from __future__ import annotations

from typing import NamedTuple

from .construct import CodeSpec
from .files import as_column
from .plan import RebuildPlan


class CodecError(ValueError):
    pass


def _checked(spec: CodeSpec, columns, count: int, erased=()) -> list:
    """`count` node columns as the plan's one-stripe columns, each checked to
    hold p field elements.  Columns named in `erased` are neither checked nor
    read, and may be None."""
    if len(columns) != count:
        raise CodecError(f"expected {count} columns, got {len(columns)}")
    out = []
    for node, col in enumerate(columns):
        if node in erased:
            out.append(None)
            continue
        if len(col) != spec.p:
            raise CodecError(f"column {node} holds {len(col)} symbols, not {spec.p}")
        for a in col:
            spec.field.check(a)
        out.append(as_column(spec.field.q, col))
    return out


def _lists(cols) -> list:
    return [list(col) for col in cols]


def encode(spec: CodeSpec, info_columns) -> list:
    """All n columns of the stripe whose k information columns are given."""
    cols = _checked(spec, info_columns, spec.k)
    return _lists(cols + spec.plan.encode(cols, 1))


def syndrome(spec: CodeSpec, columns) -> list:
    """Per-parity residuals: recomputed parity minus stored parity.

    All zero exactly when the stripe is consistent.
    """
    return _lists(spec.plan.syndrome(_checked(spec, columns, spec.n), 1))


def rebuild_one(spec: CodeSpec, columns, erased: int) -> tuple[list, RebuildPlan]:
    """Rebuild one erased node, reading as little of the survivors as the
    family allows.  Returns (column values, RebuildPlan).

    Rows in the erased column's parity-s access set are recovered through
    parity s; every cell read is recorded once, even when several sets share
    it.  An erased parity node is recomputed from all information cells.
    """
    if erased < 0 or erased >= spec.n:
        raise CodecError(f"node {erased} out of range")
    cols = _checked(spec, columns, spec.n, (erased,))
    spec.plan.decode(cols, 1, [erased])
    return list(cols[erased]), spec.plan.rebuild_plan(erased)


def decode_erasures(spec: CodeSpec, columns, erased) -> list:
    """The stripe's n columns with up to r erased ones restored.  Erased
    entries of `columns` are ignored.

    Raises SingularMatrixError when the pattern is not decodable, which a
    user-supplied coefficient table can cause.
    """
    erased = sorted(set(erased))
    if any(c < 0 or c >= spec.n for c in erased):
        raise CodecError("erased node out of range")
    if len(erased) > spec.r:
        raise CodecError(f"cannot decode {len(erased)} erasures with r={spec.r}")
    cols = _checked(spec, columns, spec.n, erased)
    spec.plan.decode(cols, 1, erased)
    return _lists(cols)


class ErrorScan(NamedTuple):
    status: str          # 'clean' | 'corrected' | 'uncorrectable'
    location: object     # corrected node index, or None
    columns: list


def decode_error(spec: CodeSpec, columns) -> ErrorScan:
    """Locate and correct at most one corrupted column.

    Zero syndromes mean a clean stripe.  Otherwise each node in turn is
    rebuilt from the others (`CodePlan.repair` with no erasures); the one
    whose rebuild zeroes the syndrome is the corrupted one.  No such node
    means more than one column is bad.
    """
    cols = _checked(spec, columns, spec.n)
    fixed, bad = spec.plan.repair(cols, 1)
    cols = _lists(cols)
    if bad is not None:
        return ErrorScan("uncorrectable", None, cols)
    if fixed:
        return ErrorScan("corrected", fixed[0], cols)
    return ErrorScan("clean", None, cols)
