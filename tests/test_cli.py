import hashlib
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import oracles
from zzmds import cli, files
from zzmds.files import node_filename, read_manifest
from zzmds.perms import format_vector_list, standard_basis_family

CONFIG_53 = """\
# the 4x5 array over gf(3)
family=standard
m=2
r=2
s=1
scheme=cons3
field=gf(3)
"""

CONFIG_DUP = """\
family=standard
m=2
s=2
scheme=cons4
field=gf(3)
"""


def write(path, data):
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "code.cfg"
    cfg.write_text(CONFIG_53)
    payload = tmp_path / "payload.bin"
    rng = random.Random(2024)
    payload.write_bytes(bytes(rng.randrange(256) for _ in range(1024)))
    out = tmp_path / "nodes"
    rc = cli.main(["encode", str(payload), "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    return tmp_path


def node_path(workdir, i):
    return workdir / "nodes" / node_filename(i)


def snapshot(workdir, n=5):
    return {i: read(node_path(workdir, i)) for i in range(n)}


def test_encode_layout(workdir):
    names = sorted(os.listdir(workdir / "nodes"))
    assert names == ["manifest", "node_00", "node_01", "node_02", "node_03", "node_04"]
    mf = read_manifest(str(workdir / "nodes" / "manifest"))
    assert (mf.m, mf.r, mf.s) == (2, 2, 1)
    assert mf.field_token == "gf(3)"
    assert mf.scheme == "cons3"
    assert mf.vectors == "00,10,01"
    assert mf.payload_length == 1024
    # 1024 bytes -> 6 symbols each -> 6144 symbols over stripes of 12
    assert mf.stripe_count == 512


def test_rebuild_single_node(workdir, capsys):
    before = snapshot(workdir)
    os.remove(node_path(workdir, 1))
    rc = cli.main(["rebuild", str(workdir / "nodes")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ratio 1/2" in out
    assert "read node_00: 2 cells/stripe" in out
    assert read(node_path(workdir, 1)) == before[1]


def test_rebuild_parity_reports_full_read(workdir, capsys):
    before = snapshot(workdir)
    os.remove(node_path(workdir, 4))
    rc = cli.main(["rebuild", str(workdir / "nodes")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ratio 1" in out and "ratio 1/" not in out
    assert read(node_path(workdir, 4)) == before[4]


def test_rebuild_needs_exactly_one_missing(workdir, capsys):
    os.remove(node_path(workdir, 0))
    os.remove(node_path(workdir, 2))
    rc = cli.main(["rebuild", str(workdir / "nodes")])
    assert rc == 3
    assert "decode" in capsys.readouterr().err


def test_decode_two_nodes_and_extract(workdir, capsys):
    before = snapshot(workdir)
    os.remove(node_path(workdir, 0))
    os.remove(node_path(workdir, 3))
    extracted = workdir / "roundtrip.bin"
    rc = cli.main(["decode", str(workdir / "nodes"), "--out", str(extracted)])
    assert rc == 0
    assert read(node_path(workdir, 0)) == before[0]
    assert read(node_path(workdir, 3)) == before[3]
    assert extracted.read_bytes() == read(workdir / "payload.bin")


def test_decode_too_many_missing(workdir, capsys):
    for i in (0, 1, 2):
        os.remove(node_path(workdir, i))
    rc = cli.main(["decode", str(workdir / "nodes")])
    assert rc == 2


def test_decode_regenerates_distrusted_node(workdir, capsys):
    before = snapshot(workdir)
    write(node_path(workdir, 2), b"\x02" * len(before[2]))  # plausible garbage
    rc = cli.main(["decode", str(workdir / "nodes"), "--missing", "2"])
    assert rc == 0
    assert read(node_path(workdir, 2)) == before[2]


def test_rebuild_node_flag_must_match(workdir, capsys):
    os.remove(node_path(workdir, 1))
    rc = cli.main(["rebuild", str(workdir / "nodes"), "--node", "3"])
    assert rc == 3
    assert read(node_path(workdir, 3))  # untouched
    assert cli.main(["rebuild", str(workdir / "nodes"), "--node", "99"]) == 3
    assert "error: missing node index out of range" in capsys.readouterr().err
    assert cli.main(["rebuild", str(workdir / "nodes"), "--node", "1"]) == 0


def test_scrub_clean(workdir, capsys):
    rc = cli.main(["scrub", str(workdir / "nodes")])
    assert rc == 0
    assert "no error" in capsys.readouterr().out


def test_scrub_locates_corrupted_node(workdir, capsys):
    before = snapshot(workdir)
    blob = bytearray(before[2])
    for pos in range(0, 40, 7):
        blob[pos] = (blob[pos] + 1) % 3   # stay inside the gf(3) alphabet
    write(node_path(workdir, 2), bytes(blob))
    rc = cli.main(["scrub", str(workdir / "nodes")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "corrected node_02" in out
    assert snapshot(workdir) == before


def test_scrub_handles_out_of_range_symbols(workdir, capsys):
    before = snapshot(workdir)
    blob = bytearray(before[1])
    blob[5] = 0xFF   # not a gf(3) symbol at all
    write(node_path(workdir, 1), bytes(blob))
    rc = cli.main(["scrub", str(workdir / "nodes")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "corrected node_01" in out
    assert snapshot(workdir) == before


def test_scrub_corrects_two_nodes_in_two_stripes(workdir, capsys):
    before = snapshot(workdir)
    for node, stripe, row in ((0, 3, 1), (4, 100, 2)):   # T = 512 stripes
        blob = bytearray(before[node])
        pos = row * 512 + stripe
        blob[pos] = (blob[pos] + 1) % 3
        write(node_path(workdir, node), bytes(blob))
    rc = cli.main(["scrub", str(workdir / "nodes")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "corrected node_00" in out and "corrected node_04" in out
    assert snapshot(workdir) == before


@pytest.mark.parametrize("command", ["rebuild", "decode"])
def test_out_of_field_node_is_lost(workdir, capsys, command):
    before = snapshot(workdir)
    blob = bytearray(before[1])
    blob[5] = 0xFF   # not a gf(3) symbol at all
    write(node_path(workdir, 1), bytes(blob))
    back = workdir / "back.bin"
    argv = [command, str(workdir / "nodes")]
    assert cli.main(argv + (["--out", str(back)] if command == "decode" else [])) == 0
    assert "node_01 holds a symbol outside gf(3)" in capsys.readouterr().err
    assert snapshot(workdir) == before
    if command == "decode":
        assert back.read_bytes() == read(workdir / "payload.bin")


def test_scrub_two_corrupted_nodes_uncorrectable(workdir, capsys):
    for node in (0, 2):
        blob = bytearray(read(node_path(workdir, node)))
        blob[0] = (blob[0] + 1) % 3
        write(node_path(workdir, node), bytes(blob))
    rc = cli.main(["scrub", str(workdir / "nodes")])
    assert rc == 2
    assert "uncorrectable" in capsys.readouterr().out


def test_rebuild_with_truncated_survivor(workdir, capsys):
    path = node_path(workdir, 2)
    write(path, read(path)[:-5])
    os.remove(node_path(workdir, 1))
    rc = cli.main(["rebuild", str(workdir / "nodes")])
    err = capsys.readouterr().err
    assert rc in (2, 3)
    assert "node_02" in err and "Traceback" not in err


def test_decode_with_inflated_stripe_count(workdir, capsys):
    manifest = workdir / "nodes" / "manifest"
    blob = bytearray(read(manifest))
    count = int.from_bytes(blob[-4:], "little")   # stripe count: the last u32
    blob[-4:] = (count + 7).to_bytes(4, "little")
    write(manifest, bytes(blob))
    os.remove(node_path(workdir, 0))
    rc = cli.main(["decode", str(workdir / "nodes"), "--out", str(workdir / "back.bin")])
    assert rc in (2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_scrub_restores_truncated_node(workdir, capsys):
    before = snapshot(workdir)
    write(node_path(workdir, 2), before[2][:-5])
    rc = cli.main(["scrub", str(workdir / "nodes")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "corrected node_02" in out
    assert snapshot(workdir) == before


def encode_wide(tmp_path):
    """A gf(257) directory, whose node files store two bytes per symbol."""
    cfg = tmp_path / "code.cfg"
    cfg.write_text("family=standard\nm=1\ns=2\nscheme=cons4\nfield=gf(257)\n")
    payload = tmp_path / "p.bin"
    payload.write_bytes(bytes(range(200)))
    out = tmp_path / "nodes"
    assert cli.main(["encode", str(payload), "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_scrub_restores_partial_wide_symbol_node(tmp_path, capsys):
    # an odd-length gf(257) file is lost, not fatal
    out = encode_wide(tmp_path)
    before = read(out / node_filename(1))
    write(out / node_filename(1), before[:-1])
    capsys.readouterr()
    assert cli.main(["scrub", str(out)]) == 0
    assert "corrected node_01" in capsys.readouterr().out
    assert read(out / node_filename(1)) == before


def test_wide_symbol_outside_field_is_lost(tmp_path, capsys):
    out = encode_wide(tmp_path)
    before = read(out / node_filename(1))
    write(out / node_filename(1), b"\xff\xff" + before[2:])   # 65535 >= 257
    capsys.readouterr()
    assert cli.main(["rebuild", str(out)]) == 0
    assert "node_01 holds a symbol outside gf(257)" in capsys.readouterr().err
    assert read(out / node_filename(1)) == before


# weight-2 vectors over gf(3): the config parses, but `verify` prints "MDS: no"
# and nodes 0 and 2 together cannot be decoded.
CONFIG_NOT_MDS = "family=weightw\nm=4\nw=2\nscheme=weightw\nfield=gf(3)\n"


@pytest.mark.parametrize("command", ["decode", "scrub"])
def test_undecodable_pattern_is_uncorrectable(tmp_path, capsys, command):
    cfg = tmp_path / "code.cfg"
    cfg.write_text(CONFIG_NOT_MDS)
    payload = tmp_path / "p.bin"
    payload.write_bytes(random.Random(5).randbytes(3000))
    out = tmp_path / "nodes"
    assert cli.main(["encode", str(payload), "--config", str(cfg), "--out", str(out)]) == 0
    for node in (0, 2):
        path = out / node_filename(node)
        if command == "decode":
            os.remove(path)
        else:
            write(path, read(path)[:-3])
    capsys.readouterr()
    assert cli.main([command, str(out)]) == 2
    assert "error: erasure pattern [0, 2] is not decodable" in capsys.readouterr().err


def test_scrub_locates_corrupted_node_three_parities(tmp_path, capsys):
    cfg = tmp_path / "code.cfg"
    cfg.write_text("family=standard\nm=2\nr=3\nscheme=r3\n")
    payload = tmp_path / "p.bin"
    payload.write_bytes(bytes(random.Random(7).randrange(256) for _ in range(300)))
    out = tmp_path / "nodes"
    assert cli.main(["encode", str(payload), "--config", str(cfg), "--out", str(out)]) == 0
    before = {i: read(out / node_filename(i)) for i in range(6)}   # k=3, r=3
    blob = bytearray(before[1])
    for pos in range(0, 60, 11):
        blob[pos] = (blob[pos] + 1) % 7   # stay inside the gf(7) alphabet
    write(out / node_filename(1), bytes(blob))
    capsys.readouterr()
    assert cli.main(["scrub", str(out)]) == 0
    assert "corrected node_01" in capsys.readouterr().out
    assert {i: read(out / node_filename(i)) for i in range(6)} == before


def encode_config(tmp_path, config, size=3000, seed=7):
    """Encode `size` seeded random bytes; returns (node directory, {node file: bytes})."""
    cfg = tmp_path / "code.cfg"
    cfg.write_text(config)
    payload = tmp_path / "p.bin"
    payload.write_bytes(random.Random(seed).randbytes(size))
    out = tmp_path / "nodes"
    assert cli.main(["encode", str(payload), "--config", str(cfg), "--out", str(out)]) == 0
    return out, {name: read(out / name) for name in os.listdir(out) if name != "manifest"}


def invalid_and_corrupted(out, q, invalid=0, corrupted=1):
    """Cut one byte off one node file and change one symbol of another."""
    path = out / node_filename(invalid)
    write(path, read(path)[:-1])
    path = out / node_filename(corrupted)
    blob = bytearray(read(path))
    blob[100] = (blob[100] + 1) % q
    write(path, bytes(blob))
    return {name: read(out / name) for name in os.listdir(out) if name != "manifest"}


def scrub_and_decode(cases):
    """Each (id, values) case once under `scrub`, keeping its id, and once
    under `decode --out`."""
    return ([pytest.param("scrub", *values, id=name) for name, values in cases]
            + [pytest.param("decode", *values, id=f"decode-{name}") for name, values in cases])


def run_repair(command, out):
    """Run `command` on the node directory; `decode` also writes the payload
    to back.bin beside it, which this returns (None if not written)."""
    back = out.parent / "back.bin"
    argv = [command, str(out)] + (["--out", str(back)] if command == "decode" else [])
    rc = cli.main(argv)
    return rc, back.read_bytes() if back.exists() else None


@pytest.mark.parametrize("command, config, q", scrub_and_decode(
    [("cons3", ("family=standard\nm=3\nscheme=cons3\n", 3)),
     ("weightw", ("family=weightw\nm=6\nw=3\nscheme=weightw\n", 9))]))
def test_scrub_invalid_and_corrupted_two_parities(tmp_path, capsys, command, config, q):
    # With r=2, decoding the invalid node leaves too little distance to
    # locate the corrupted one: a stripe made consistent by patching one
    # column may still differ from the encoded one in three columns.
    out, _ = encode_config(tmp_path, config)
    damaged = invalid_and_corrupted(out, q)
    capsys.readouterr()
    assert run_repair(command, out) == (2, None)
    assert "uncorrectable" in capsys.readouterr().out
    assert {name: read(out / name) for name in damaged} == damaged


@pytest.mark.parametrize("command, corrupted", scrub_and_decode(
    [(str(j), (j,)) for j in range(1, 7)]))
def test_scrub_invalid_and_corrupted_three_parities(tmp_path, capsys, command, corrupted):
    # One erasure and one error: 2 * 1 + 1 <= r = 3, within column distance 4.
    out, before = encode_config(tmp_path, "family=standard\nm=3\nr=3\nscheme=r3\n")
    invalid_and_corrupted(out, 11, corrupted=corrupted)
    capsys.readouterr()
    rc, payload = run_repair(command, out)
    assert rc == 0
    assert f"corrected node_{corrupted:02d}" in capsys.readouterr().out
    assert {name: read(out / name) for name in before} == before
    if command == "decode":
        assert payload == read(tmp_path / "p.bin")


CONS3_M3 = "family=standard\nm=3\nscheme=cons3\n"


def rchar():
    """(bytes this process has read so far, bytes this probe read)."""
    with open("/proc/self/io", "rb", buffering=0) as fh:
        blob = fh.read()
    fields = dict(line.split(b":") for line in blob.splitlines() if b":" in line)
    return int(fields[b"rchar"]), len(blob)


@pytest.mark.parametrize("config, lost", [
    (CONS3_M3, 1),
    ("family=standard\nm=3\nr=3\nscheme=r3\nfield=gf(11)\n", 2),
    ("family=weightw\nm=6\nw=3\nscheme=weightw\n", 5),
    (CONS3_M3, 4),
], ids=["cons3", "r3", "weightw", "cons3-parity"])
def test_rebuild_reads_only_its_access_rows(tmp_path, capsys, monkeypatch, config, lost):
    out, before = encode_config(tmp_path, config)
    spec = cli.parse_config(str(tmp_path / "code.cfg"))
    count = read_manifest(str(out / "manifest")).stripe_count
    access = spec.plan.rebuild_plan(lost).access
    expected = sum(len(rows) for rows in access.values()) * count   # one byte a symbol
    survivors = (spec.n - 1) * spec.p * count
    preads, real_pread = [], os.pread

    def pread(fd, length, offset):
        blob = real_pread(fd, length, offset)
        preads.append(len(blob))
        return blob

    monkeypatch.setattr(os, "pread", pread)
    path = out / node_filename(lost)
    os.remove(path)
    capsys.readouterr()
    assert cli.main(["rebuild", str(out)]) == 0
    text = capsys.readouterr().out
    assert f"read {expected} of {survivors} survivor bytes" in text
    assert sum(preads) == expected
    assert read(path) == before[node_filename(lost)]
    if os.path.exists("/proc/self/io"):
        # warmed up above: the command reads the manifest and its rows, no more
        os.remove(path)
        start, probe = rchar()
        assert cli.main(["rebuild", str(out)]) == 0
        delta = rchar()[0] - start - probe
        assert delta <= expected + os.path.getsize(out / "manifest")
        assert read(path) == before[node_filename(lost)]


@pytest.mark.parametrize("read_row", [True, False], ids=["read-row", "unread-row"])
def test_rebuild_out_of_field_symbol_in_survivor(tmp_path, capsys, read_row):
    # rebuild checks the rows it reads, and neither reads nor checks the others
    out, before = encode_config(tmp_path, CONS3_M3)
    spec = cli.parse_config(str(tmp_path / "code.cfg"))
    count = read_manifest(str(out / "manifest")).stripe_count
    rows = spec.plan.rebuild_plan(1).access[0]
    row = rows[0] if read_row else min(set(range(spec.p)) - set(rows))
    blob = bytearray(before["node_00"])
    blob[row * count + 7] = 0xFF
    write(out / "node_00", bytes(blob))
    os.remove(out / "node_01")
    capsys.readouterr()
    rc = cli.main(["rebuild", str(out)])
    err = capsys.readouterr().err
    if read_row:
        assert rc == 3
        assert "node_00 holds a symbol outside gf(3)" in err and "2 nodes missing" in err
        assert not (out / "node_01").exists()
    else:
        assert rc == 0 and err == ""
        assert read(out / "node_01") == before["node_01"]
    assert read(out / "node_00") == bytes(blob)


@pytest.mark.parametrize("second", ["absent", "truncated"])
def test_rebuild_two_lost_nodes_reads_no_node_bytes(tmp_path, capsys, monkeypatch, second):
    out, before = encode_config(tmp_path, CONS3_M3)
    os.remove(out / "node_01")
    if second == "absent":
        os.remove(out / "node_03")
    else:
        write(out / "node_03", before["node_03"][:-5])
    damaged = {name: read(out / name) for name in os.listdir(out)}

    def pread(fd, length, offset):
        raise AssertionError("a node byte was read")

    monkeypatch.setattr(os, "pread", pread)
    capsys.readouterr()
    assert cli.main(["rebuild", str(out)]) == 3
    err = capsys.readouterr().err
    assert ("error: 2 nodes missing; rebuild handles exactly one "
            "(use decode for multi-node loss)") in err
    assert ("node_03 holds" in err) == (second == "truncated")
    assert {name: read(out / name) for name in os.listdir(out)} == damaged


def test_decode_all_parity_spent_leaves_directory_on_bad_stream(tmp_path, capsys):
    # With e = r nodes lost no parity is left to check a corrupted survivor.
    # Here the decoded stream then fails to unpack (exit 3): no node file may
    # have been written by then.
    out, before = encode_config(tmp_path, "family=standard\nm=3\nscheme=cons3\n")
    for node in (0, 1):
        os.remove(out / node_filename(node))
    blob = bytearray(before["node_02"])
    blob[0] = (blob[0] + 1) % 3
    write(out / "node_02", bytes(blob))
    damaged = {name: read(out / name) for name in os.listdir(out)}
    capsys.readouterr()
    assert run_repair("decode", out) == (3, None)
    assert "symbol group exceeds one byte" in capsys.readouterr().err
    assert {name: read(out / name) for name in os.listdir(out)} == damaged


# SHA-256 of the files `encode` writes for a seeded 3000-byte payload, in
# format version 2 (row-major node files); `test_encode_matches_definition`
# derives the node files apart.  A change to these is a change of the on-disk
# format.
GOLDEN_ENCODE = {
    "family=standard\nm=3\nscheme=cons3\n": {
        "manifest": "74763d8c965c1e7e62cd4bb60881afea0aa6e0a553af85dddefab92e392f2944",
        "node_00": "bb8eb51b640a7dac99239a3bd702ef0cc2d407285f51cbef6f7e56e5d0317cca",
        "node_01": "9612b7b53e245c2723a8a2ee97ca7b04e1ae3b9ca85bc7fbeab1cf560c5f2fa2",
        "node_02": "dcb0f5745d167df7931e162ba5f7c2d13950fb0cf566867bcc3c7bc9fabaf66b",
        "node_03": "4ed3aff0042bbad48f518c8d07a20f35b0b65d15b6323ad2ae49144307075e49",
        "node_04": "58331564bd2d8ab9065181dd42242ca8e7257722257db6618d16ce2aff26d81b",
        "node_05": "d6a944c48a588c66209ac17d41a5aea27dd9f3e78472749c10444afd15934dd9",
    },
    "family=standard\nm=3\nr=3\nscheme=r3\n": {
        "manifest": "3e9768c01b88425733af4b3537fd8d11ddceec759a4ed6d839c0a86c8b7d90f6",
        "node_00": "1be63ddcfcea6d7b14e670fe9b63c120e3b89cdd914a65ea4cfa8a819037e3b5",
        "node_01": "7da2e22216670d2002853e24ed1f8fc131027a290d60f554093800b1bf5ae936",
        "node_02": "86a56ad3237994ad7e16f02eb6d34c8ae6c8bfbfcbfba6502d780c3270fda4df",
        "node_03": "46274462e69790e413e8f0d6077d770db2558999aba3a6d7bfde8a77e23096c9",
        "node_04": "7509ec200268ff174138784144698554ec8448edb3ffcfbce67f080c0beaec9c",
        "node_05": "0f1722a78e09255a75ac09bc71d942ed5fe2cfdca07a061665ee1eb3a1a7a711",
        "node_06": "a0e6d88ecb9c9316cbbbe89d31637d174f1ba6a1733cf46742b1c4657fcbfb1b",
    },
    "family=weightw\nm=6\nw=3\nscheme=weightw\n": {
        "manifest": "a87ee153c91fa39bf80fb02880ddd81e82479e75d03a5febab87a8661102d955",
        "node_00": "0779ab0fb673c0bc94b294bacf95ff19d9016d4737660f08205ac1e75ec50313",
        "node_01": "8d4ad53605ca3926d5ad7fba7ef01d66effd848c0e029b36d090d9f2cc4c56b7",
        "node_02": "919d42a12c306d1759ec7e1ddaf8a3f8279d4c1b0f53b5ea82b26d5c2da6e045",
        "node_03": "8e2295d66a0bb0d747b8d6fc9afef752ade3cc1ab9c16ad19c588fc1be1b14ef",
        "node_04": "1c8d0027c9d0fa28a6237a4148bfeb28cb1631091982c266f089164c740aedc6",
        "node_05": "df9cdcaf8ada03c2f2323c7629ac140bbd87d003ace2e9c029767bfe370cff8e",
        "node_06": "37017d03c86399dda64d6171295103e6e506c853599bd50715931c5abdd14fec",
        "node_07": "be4cdee3536f5acc9d3fed8127156e53c46c510ee9fbbd9ba01d87536496922f",
        "node_08": "91fb6b95600da7dd72984428e6747d8ae3381697f1250a07d4406e2183a2185f",
        "node_09": "e41ed357ea4a906a15be725c08f4b06c32a63e668ad7a88be7801b1f86a89fbc",
    },
}


@pytest.mark.parametrize("config", list(GOLDEN_ENCODE), ids=["cons3", "r3", "weightw"])
def test_encode_golden_format(tmp_path, capsys, config):
    cfg = tmp_path / "code.cfg"
    cfg.write_text(config)
    payload = tmp_path / "p.bin"
    payload.write_bytes(random.Random(3000).randbytes(3000))
    out = tmp_path / "nodes"
    assert cli.main(["encode", str(payload), "--config", str(cfg), "--out", str(out)]) == 0
    got = {name: hashlib.sha256(read(out / name)).hexdigest() for name in os.listdir(out)}
    assert got == GOLDEN_ENCODE[config]


def node_files_by_definition(spec, payload):
    """The node files `encode` should write for `payload`, built without
    `zzmds.files`: each byte as its d base-q digits by divmod, most
    significant first; stripe t holding digits [t*k*p, (t+1)*k*p), column j
    the p of them from j*p; parities by `oracles.parity_by_definition`; each
    node file row-major (row x of stripe t is symbol x*T + t), one byte a
    symbol."""
    q, p, k = spec.field.q, spec.p, spec.k
    d = 1
    while q ** d < 256:
        d += 1
    digits = []
    for byte in payload:
        group = []
        for _ in range(d):
            byte, digit = divmod(byte, q)
            group.append(digit)
        digits += reversed(group)
    cap = p * k
    count = -(-len(digits) // cap)
    digits += [0] * (count * cap - len(digits))
    nodes = [[0] * (p * count) for _ in range(spec.n)]
    for t in range(count):
        info = [[digits[t * cap + j * p + x] for j in range(k)] for x in range(p)]
        stripe = [[info[x][j] for x in range(p)] for j in range(k)]
        stripe += [oracles.parity_by_definition(spec, info, sidx) for sidx in range(spec.r)]
        for j, column in enumerate(stripe):
            for x, v in enumerate(column):
                nodes[j][x * count + t] = v
    return {f"node_{j:02d}": bytes(col) for j, col in enumerate(nodes)}


@pytest.mark.parametrize("config", list(GOLDEN_ENCODE), ids=["cons3", "r3", "weightw"])
def test_encode_matches_definition(tmp_path, capsys, config):
    # the golden payload's node files, derived apart from the packer and writer
    out, written = encode_config(tmp_path, config, seed=3000)
    spec = cli.parse_config(str(tmp_path / "code.cfg"))
    payload = read(tmp_path / "p.bin")
    assert written == node_files_by_definition(spec, payload)


def test_empty_payload(tmp_path, capsys):
    cfg = tmp_path / "code.cfg"
    cfg.write_text(CONFIG_53)
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    out = tmp_path / "nodes"
    assert cli.main(["encode", str(empty), "--config", str(cfg), "--out", str(out)]) == 0
    mf = read_manifest(str(out / "manifest"))
    assert mf.stripe_count == 0 and mf.payload_length == 0
    os.remove(out / "node_02")
    assert cli.main(["rebuild", str(out)]) == 0
    back = tmp_path / "back.bin"
    assert cli.main(["decode", str(out), "--out", str(back)]) == 0
    assert back.read_bytes() == b""


def test_duplicated_average_ratio(tmp_path, capsys):
    cfg = tmp_path / "code.cfg"
    cfg.write_text(CONFIG_DUP)
    payload = tmp_path / "p.bin"
    payload.write_bytes(bytes(range(120)))
    out = tmp_path / "nodes"
    assert cli.main(["encode", str(payload), "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    ratios = []
    for node in range(6):
        data = read(out / node_filename(node))
        os.remove(out / node_filename(node))
        assert cli.main(["rebuild", str(out)]) == 0
        printed = capsys.readouterr().out
        match = re.search(r"ratio (\d+)(?:/(\d+))?", printed)
        ratios.append(Fraction(int(match.group(1)), int(match.group(2) or 1)))
        assert read(out / node_filename(node)) == data
    assert sum(ratios, Fraction(0)) / 6 == Fraction(4, 7)


def test_even_field_config_roundtrip(tmp_path):
    cfg = tmp_path / "code.cfg"
    cfg.write_text("family=standard\nm=2\ns=2\nscheme=cons4\nfield=gf(2^2)\n")
    payload = tmp_path / "p.bin"
    payload.write_bytes(bytes(range(200)))
    out = tmp_path / "nodes"
    assert cli.main(["encode", str(payload), "--config", str(cfg), "--out", str(out)]) == 0
    os.remove(out / node_filename(2))
    os.remove(out / node_filename(6))
    back = tmp_path / "back.bin"
    assert cli.main(["decode", str(out), "--out", str(back)]) == 0
    assert back.read_bytes() == payload.read_bytes()


def test_verify_report(tmp_path, capsys):
    cfg = tmp_path / "code.cfg"
    cfg.write_text("family=standard\nm=3\nscheme=cons3\n")
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "MDS: yes (checked 21 patterns)" in out


def test_verify_and_ratio_three_parities(tmp_path, capsys):
    cfg = tmp_path / "code.cfg"
    cfg.write_text("family=standard\nm=2\nr=3\nscheme=r3\n")
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    assert "MDS: yes" in capsys.readouterr().out
    assert cli.main(["ratio", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "1/3" in out and "gf(7)" in out


def test_ratio_report_large_duplication(tmp_path, capsys):
    cfg = tmp_path / "code.cfg"
    cfg.write_text("family=standard\nm=10\ns=6\nscheme=cons4\n")
    assert cli.main(["ratio", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "36/67" in out and "0.537" in out
    assert "gf(7)" in out
    assert "ratio_predicted_num=36" in out


def test_ratio_report_small(tmp_path, capsys):
    cfg = tmp_path / "code.cfg"
    cfg.write_text(CONFIG_53)
    assert cli.main(["ratio", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "ratio_measured_num=1" in out and "ratio_measured_den=2" in out


def test_dump_coefficients_golden(tmp_path, capsys):
    cfg = tmp_path / "code.cfg"
    cfg.write_text(CONFIG_53)
    assert cli.main(["dump-coefficients", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # per the scheme rule with prefix vectors (0,0), (1,0), (1,1):
    # column 0 always 1; column 1 doubles on rows with first digit 1;
    # column 2 doubles on rows with odd digit sum
    assert lines == [
        "0 0 1 1", "0 1 1 1", "0 2 1 1",
        "1 0 1 1", "1 1 1 1", "1 2 1 2",
        "2 0 1 1", "2 1 1 2", "2 2 1 2",
        "3 0 1 1", "3 1 1 2", "3 2 1 1",
    ]


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("family=standard\nm=2\nscheme=mystery\n")
    assert cli.main(["verify", "--config", str(bad)]) == 3
    bad.write_text("volume=11\n")
    assert cli.main(["verify", "--config", str(bad)]) == 3
    bad.write_text("family=standard\nm=2\nscheme=cons3\nfield=gf(4)\n")
    assert cli.main(["verify", "--config", str(bad)]) == 3
    bad.write_text("family=standard\nm=2\nscheme=table\n")
    assert cli.main(["verify", "--config", str(bad)]) == 3
    assert cli.main(["verify", "--config", str(tmp_path / "absent.cfg")]) == 3


def test_manifest_validation(workdir, capsys):
    manifest = workdir / "nodes" / "manifest"
    blob = bytearray(read(manifest))
    blob[0] ^= 0xFF
    write(manifest, bytes(blob))
    assert cli.main(["scrub", str(workdir / "nodes")]) == 3
    assert "magic" in capsys.readouterr().err

    blob[0] ^= 0xFF
    blob[6] = 9  # unsupported version
    write(manifest, bytes(blob))
    assert cli.main(["scrub", str(workdir / "nodes")]) == 3
    assert "version" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rebuild", "decode", "scrub"])
def test_manifest_version_1_is_refused(workdir, capsys, command):
    # version 1 node files are stripe-major; no command may read them as rows
    nodes = workdir / "nodes"
    os.remove(node_path(workdir, 1))
    blob = bytearray(read(nodes / "manifest"))
    blob[6] = 1
    write(nodes / "manifest", bytes(blob))
    before = {name: read(nodes / name) for name in os.listdir(nodes)}
    back = workdir / "back.bin"
    capsys.readouterr()
    argv = [command, str(nodes)] + (["--out", str(back)] if command == "decode" else [])
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "unsupported manifest version 1" in err and "Traceback" not in err
    assert {name: read(nodes / name) for name in os.listdir(nodes)} == before
    assert not back.exists()


def rewrite_manifest(directory, **fields):
    """Overwrite the directory's manifest with some of its fields replaced."""
    mf = read_manifest(str(directory / "manifest"))
    files.write_manifest(str(directory / "manifest"), mf._replace(**fields))


def test_garbled_manifest_m_fails_before_building(tmp_path, capsys):
    out, _ = encode_config(tmp_path, CONFIG_53, size=100)
    vectors = format_vector_list(standard_basis_family(16, 2).vectors)
    rewrite_manifest(out, m=16, vectors=vectors)
    start = time.perf_counter()
    assert cli.main(["scrub", str(out)]) == 3
    assert time.perf_counter() - start < 0.1
    assert "stripe count" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["r", "s"])
def test_zero_manifest_geometry(tmp_path, capsys, field):
    out, _ = encode_config(tmp_path, CONFIG_53, size=100)
    rewrite_manifest(out, **{field: 0})
    assert cli.main(["scrub", str(out)]) == 3
    err = capsys.readouterr().err
    assert "bad manifest" in err and "Traceback" not in err


def test_missing_manifest(tmp_path, capsys):
    os.makedirs(tmp_path / "nothing")
    assert cli.main(["rebuild", str(tmp_path / "nothing")]) == 3


# A prime far past gf.MAX_PRIME: trial division of it would not end.
HUGE_PRIME_FIELD = "gf(1000000000000000003)"


@pytest.mark.parametrize("command", ["rebuild", "decode", "scrub"])
def test_oversized_prime_in_manifest(tmp_path, capsys, command):
    out, _ = encode_config(tmp_path, CONFIG_53, size=100)
    os.remove(out / node_filename(1))
    rewrite_manifest(out, field_token=HUGE_PRIME_FIELD)
    before = {name: read(out / name) for name in os.listdir(out)}
    back = tmp_path / "back.bin"
    argv = [command, str(out)] + (["--out", str(back)] if command == "decode" else [])
    capsys.readouterr()
    start = time.perf_counter()
    assert cli.main(argv) == 3
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert "bad manifest" in err and "Traceback" not in err
    assert {name: read(out / name) for name in os.listdir(out)} == before
    assert not back.exists()


def test_oversized_prime_in_config(tmp_path, capsys):
    cfg = tmp_path / "code.cfg"
    cfg.write_text(CONFIG_53.replace("field=gf(3)", f"field={HUGE_PRIME_FIELD}"))
    write(tmp_path / "p.bin", b"payload")
    out = tmp_path / "nodes"
    start = time.perf_counter()
    assert cli.main(["encode", str(tmp_path / "p.bin"), "--config", str(cfg),
                     "--out", str(out)]) == 3
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert "bad config" in err and "Traceback" not in err
    assert not out.exists()


def test_config_too_large_fails_before_building(tmp_path, capsys):
    # cons3 m=24 holds 25 * 2^24 cells per stripe; nothing may build it
    cfg = tmp_path / "code.cfg"
    cfg.write_text(CONFIG_53.replace("m=2", "m=24"))
    write(tmp_path / "p.bin", b"payload")
    out = tmp_path / "nodes"
    for argv in (["encode", str(tmp_path / "p.bin"), "--config", str(cfg), "--out", str(out)],
                 ["verify", "--config", str(cfg)], ["ratio", "--config", str(cfg)]):
        start = time.perf_counter()
        assert cli.main(argv) == 3
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert "bad config" in err and "Traceback" not in err
    assert not out.exists()


def run_main(argv):
    """The exit code of `cli.main(argv)` in this process; usage errors and
    --help leave through SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code


def test_main_repeated_in_one_process(workdir, capsys, monkeypatch):
    # The parser is built once per process.  Calls that share it, mixing
    # subcommands, --help and usage errors, each print and exit as the same
    # call does in a fresh process.
    monkeypatch.setenv("COLUMNS", "80")
    nodes, cfg = str(workdir / "nodes"), str(workdir / "code.cfg")
    calls = [["verify", "--config", cfg], ["scrub", "--help"], ["encode"], ["bogus"],
             ["rebuild", nodes, "--node", "x"], ["scrub", nodes], ["--help"],
             ["rebuild", nodes], ["verify", "--config", cfg], ["encode"], ["scrub", "--help"]]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=src)
    fresh = {}
    capsys.readouterr()
    for argv in calls:
        code = run_main(argv)
        got = capsys.readouterr()
        if tuple(argv) not in fresh:
            done = subprocess.run([sys.executable, "-m", "zzmds.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)
            fresh[tuple(argv)] = (done.returncode, done.stdout, done.stderr)
        assert (code, got.out, got.err) == fresh[tuple(argv)], argv


PACKED_Q = (2, 3, 4, 5, 7, 9, 16, 251, 257, 65521)


def test_symbol_packing_roundtrip(tmp_path):
    from zzmds import files as zf
    data = bytes(range(256))
    for q in PACKED_Q:
        symbols = zf.bytes_to_symbols(data, q)
        assert len(symbols) == 256 * zf.digits_per_byte(q)
        assert all(0 <= v < q for v in symbols)
        assert zf.symbols_to_bytes(symbols, q, 256) == data
        # any stream of field elements: a list, a prefix, random bytes
        assert zf.symbols_to_bytes(list(symbols), q, 100) == data[:100]
        noise = random.Random(q).randbytes(1000)
        assert zf.symbols_to_bytes(zf.bytes_to_symbols(noise, q), q, 1000) == noise
        path = tmp_path / f"stream_{q}"
        zf.write_node_file(str(path), symbols, q)
        width = zf.symbol_width(q)
        assert read(path) == b"".join(v.to_bytes(width, "little") for v in symbols)
    # a symbol group that decodes past one byte is corruption
    with pytest.raises(zf.FormatError):
        zf.symbols_to_bytes([2, 2, 2, 2, 2, 2], 3, 1)  # 728 > 255
    with pytest.raises(zf.FormatError):
        zf.symbols_to_bytes([1, 1], 3, 1)  # short stream


@pytest.mark.parametrize("position", [0, 20, 63])
@pytest.mark.parametrize("q", [q for q in PACKED_Q if q ** files.digits_per_byte(q) > 256])
def test_symbol_group_overflow_by_one(q, position):
    # A group worth 256 beside valid groups raises; lanes never carry into
    # the neighbours, which still unpack on their own, and 255 still fits.
    from zzmds import files as zf
    from zzmds.plan import as_column
    data = random.Random(q).randbytes(64)
    d = zf.digits_per_byte(q)
    symbols = list(zf.bytes_to_symbols(data, q))

    def group(value):
        return [value // q ** (d - 1 - j) % q for j in range(d)]

    lo, hi = position * d, (position + 1) * d
    bad = symbols[:lo] + group(256) + symbols[hi:]
    for stream in (bad, as_column(q, bad)):
        with pytest.raises(zf.FormatError, match="exceeds one byte"):
            zf.symbols_to_bytes(stream, q, len(data))
    assert zf.symbols_to_bytes(bad[:lo], q, position) == data[:position]
    assert zf.symbols_to_bytes(bad[hi:], q, len(data) - position - 1) == data[position + 1:]
    top = symbols[:lo] + group(255) + symbols[hi:]
    assert zf.symbols_to_bytes(top, q, len(data)) == data[:position] + b"\xff" + data[position + 1:]


def test_scrub_corrects_many_stripes_at_once(tmp_path, capsys):
    out, before = encode_config(tmp_path, "family=standard\nm=3\nscheme=cons3\n")
    p, stripes = 8, read_manifest(str(out / "manifest")).stripe_count

    def bump(node, positions):
        blob = bytearray(read(out / node_filename(node)))
        for pos in positions:
            blob[pos] = (blob[pos] + 1) % 3
        write(out / node_filename(node), bytes(blob))

    # a different node in each of six stripes
    for node, t in enumerate((3, 40, 41, 100, 200, stripes - 1)):
        bump(node, [node * stripes + t])
    capsys.readouterr()
    assert cli.main(["scrub", str(out)]) == 0
    text = capsys.readouterr().out
    assert all(f"corrected node_{node:02d}" in text for node in range(6))
    assert {name: read(out / name) for name in before} == before

    # node_01 in every stripe
    bump(1, [t % p * stripes + t for t in range(stripes)])
    assert cli.main(["scrub", str(out)]) == 0
    assert capsys.readouterr().out.split("\n")[0] == "corrected node_01"
    assert {name: read(out / name) for name in before} == before


@pytest.mark.parametrize("command, code, message", [("scrub", 3, "19 node files missing"),
                                                     ("decode", 2, "19 nodes lost"),
                                                     ("rebuild", 3, "19 nodes missing")])
def test_manifest_only_directory_fails_before_building(tmp_path, capsys, command, code, message):
    # an empty payload passes the stripe-count check for any m; the node
    # files are counted from the manifest before cons3 m=16 is built
    out = tmp_path / "nodes"
    os.makedirs(out)
    vectors = format_vector_list(standard_basis_family(16, 2).vectors)
    files.write_manifest(str(out / "manifest"),
                         files.Manifest(16, 2, 1, "gf(3)", "cons3", vectors, 0, 0))
    start = time.perf_counter()
    assert cli.main([command, str(out)]) == code
    assert time.perf_counter() - start < 0.1
    captured = capsys.readouterr()
    assert message in captured.out + captured.err


@pytest.mark.parametrize("case", ["manifest-dir", "node-dir", "encode-out-file",
                                  "decode-out-missing-dir"])
def test_filesystem_errors_are_usage_errors(workdir, capsys, case):
    nodes = workdir / "nodes"
    argv = ["scrub", str(nodes)]
    if case == "manifest-dir":
        os.remove(nodes / "manifest")
        os.mkdir(nodes / "manifest")
    elif case == "node-dir":
        os.remove(node_path(workdir, 1))
        os.mkdir(node_path(workdir, 1))
    elif case == "encode-out-file":
        argv = ["encode", str(workdir / "payload.bin"), "--config", str(workdir / "code.cfg"),
                "--out", str(workdir / "payload.bin")]
    else:
        os.remove(node_path(workdir, 0))
        argv = ["decode", str(nodes), "--out", str(workdir / "absent" / "back.bin")]
    capsys.readouterr()
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if case == "decode-out-missing-dir":
        assert not node_path(workdir, 0).exists()   # the directory is left as it was
