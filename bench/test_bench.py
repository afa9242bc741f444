"""The benchmark's checkers must reject damaged output, and its independent
expectations must match the paper's numbers.

    python3 -m pytest -q bench
"""

import random
from fractions import Fraction

import checks
from workloads import WORKLOADS, expected_rebuild_ratio, weightw_vectors

REBUILD_OUTPUT = "rebuilt node_01 (1125 stripes)\n  read node_00: 4 cells/stripe\nratio 1/2\n"


def test_payload_with_one_flipped_byte_fails():
    payload = random.Random(1).randbytes(600)
    damaged = bytearray(payload)
    damaged[123] ^= 0x01
    assert checks.same_bytes("payload", payload, payload) == []
    problems = checks.same_bytes("payload", payload, bytes(damaged))
    assert problems and "offset 123" in problems[0]


def test_node_file_with_two_bytes_swapped_fails():
    node = bytes([0, 1, 2, 0, 1, 2, 2, 1])
    damaged = bytearray(node)
    damaged[1], damaged[2] = damaged[2], damaged[1]
    assert checks.same_bytes("node_01", node, bytes(damaged))
    assert checks.same_bytes("node_01", node, node[:-5])
    assert checks.same_bytes("node_01", node, None) == ["node_01: missing"]


def test_wrong_ratio_string_fails():
    assert checks.ratio_line(REBUILD_OUTPUT, Fraction(1, 2)) == []
    assert checks.ratio_line(REBUILD_OUTPUT.replace("1/2", "1/3"), Fraction(1, 2))
    assert checks.ratio_line(REBUILD_OUTPUT.replace("1/2", "half"), Fraction(1, 2))
    assert checks.ratio_line("rebuilt node_01\n", Fraction(1, 2))


def test_floors_and_exit_codes():
    assert checks.at_least("rebuild_read_frac", 0.5, Fraction(1, 2)) == []
    assert checks.at_least("rebuild_read_frac", 0.49, Fraction(1, 2))
    assert checks.exit_code("scrub", 0) == []
    assert checks.exit_code("scrub", 2)
    assert checks.exit_code("rebuild", "IndexError: list index out of range")


def test_expected_ratios_follow_the_paper():
    assert expected_rebuild_ratio(WORKLOADS["cons3-gf3"], 1) == Fraction(1, 2)
    assert expected_rebuild_ratio(WORKLOADS["r3-gf11"], 2) == Fraction(1, 3)
    weightw = WORKLOADS["weightw-gf9"]
    vectors = weightw_vectors(weightw.m, weightw.w)
    assert len(vectors) == weightw.k
    assert all(sum(v[b * 2:b * 2 + 2]) == 1 for v in vectors for b in range(3))
    assert {expected_rebuild_ratio(weightw, col) for col in range(weightw.k)} == {Fraction(2, 3)}
