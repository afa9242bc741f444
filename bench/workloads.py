"""The three reference codes the benchmark drives, and what the paper says
their single-node rebuild must read.

Everything here is computed from the paper's definitions, not from zzmds, so
that the checks in `checks.py` compare the program against an independent
source.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd


@dataclass(frozen=True)
class Workload:
    name: str
    config: str       # zzmds config file text
    family: str       # 'standard' or 'weightw'
    m: int
    r: int
    k: int
    w: int = 0        # block count of a weightw family

    @property
    def n(self) -> int:
        return self.k + self.r

    @property
    def p(self) -> int:
        return self.r ** self.m


WORKLOADS = {wl.name: wl for wl in (
    Workload("cons3-gf3",
             "family=standard\nm=3\nr=2\nscheme=cons3\nfield=gf(3)\n",
             family="standard", m=3, r=2, k=4),
    Workload("r3-gf11",
             "family=standard\nm=3\nr=3\nscheme=r3\nfield=gf(11)\n",
             family="standard", m=3, r=3, k=4),
    Workload("weightw-gf9",
             "family=weightw\nm=6\nw=3\nr=2\nscheme=weightw\nfield=gf(9)\n",
             family="weightw", m=6, r=2, k=8, w=3),
)}


def weightw_vectors(m: int, w: int):
    """Binary vectors with exactly one 1 in each of w equal blocks of the m
    digits, the last block varying fastest."""
    block = m // w
    out = []
    for ones in product(range(block), repeat=w):
        digits = [0] * m
        for b, pos in enumerate(ones):
            digits[b * block + pos] = 1
        out.append(tuple(digits))
    return out


def expected_rebuild_ratio(wl: Workload, lost: int) -> Fraction:
    """The printed `ratio` of a rebuild of systematic column `lost`.

    The standard family reads p/r rows of every survivor, so 1/r.  For a
    weightw family, rebuilding column v reads 2^m / gcd(2, v.(v-u) - 1) rows
    from each other data column u, and p/2 rows from each parity.
    """
    if wl.family == "standard":
        return Fraction(1, wl.r)
    vectors = weightw_vectors(wl.m, wl.w)
    v = vectors[lost]
    rows = wl.r * wl.p // 2
    for col, u in enumerate(vectors):
        if col == lost:
            continue
        dot = sum(a * ((a - b) % 2) for a, b in zip(v, u))
        rows += 2 ** wl.m // gcd(2, dot - 1)
    return Fraction(rows, wl.p * (wl.n - 1))
