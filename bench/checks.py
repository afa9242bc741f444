"""Output checks.  Each returns a list of problems, empty when the output is
right.  They compare against bytes the benchmark generated or kept aside and
against values computed in `workloads.py`, never against zzmds itself.
"""

from __future__ import annotations

from fractions import Fraction


def exit_code(command: str, code) -> list:
    return [] if code == 0 else [f"{command}: exit code {code!r}, expected 0"]


def same_bytes(what: str, expected: bytes, got) -> list:
    if got is None:
        return [f"{what}: missing"]
    if got == expected:
        return []
    if len(got) != len(expected):
        return [f"{what}: {len(got)} bytes, expected {len(expected)}"]
    first = next(i for i, (a, b) in enumerate(zip(expected, got)) if a != b)
    return [f"{what}: differs from the expected bytes at offset {first}"]


def printed_ratio(stdout: str):
    """The Fraction on the last `ratio X` line of a rebuild's output, or None."""
    value = None
    for line in stdout.splitlines():
        head, _, tail = line.strip().partition(" ")
        if head == "ratio":
            try:
                value = Fraction(tail.split()[0])
            except (ValueError, IndexError, ZeroDivisionError):
                value = None
    return value


def ratio_line(stdout: str, expected: Fraction) -> list:
    got = printed_ratio(stdout)
    if got is None:
        return ["rebuild: no parsable `ratio` line in its output"]
    return [] if got == expected else [f"rebuild: printed ratio {got}, expected {expected}"]


def at_least(what: str, value: float, floor: Fraction) -> list:
    return [] if value >= floor else [f"{what} = {value:.6f} is below its floor {floor}"]
