import hashlib
import os
import random
import re
import time
from fractions import Fraction

import pytest

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
    for node, stripe, row in ((0, 3, 1), (4, 100, 2)):   # p = 4 symbols a stripe
        blob = bytearray(before[node])
        pos = stripe * 4 + row
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


# SHA-256 of the files `encode` writes for a seeded 3000-byte payload.  A
# change to these is a change of the on-disk format.
GOLDEN_ENCODE = {
    "family=standard\nm=3\nscheme=cons3\n": {
        "manifest": "10739a22630b3b7ca978babcb7ac2425c3043aceda3fa679cb51b6f74dae3682",
        "node_00": "a85024b33395238da63da364ab742addc2ebbd63b6b64873121a1e557c50886c",
        "node_01": "42f58bef25c31711ec1f22f32d1d8a738574f6cbce05ff347af8f7808878bcb2",
        "node_02": "d1e634d363a6ce8fdf4c60ed9e14b1f1338ebe4d1f069f8efae8e2f8e35eda08",
        "node_03": "881f1561b6fedd194f70c45bdb394943c14d57ab59c494616689ca2c88b763f7",
        "node_04": "4d8bcd579ac69456cb34aa27acda18ef493d2dd53bc0963f694ecb492c3b7dad",
        "node_05": "19fb05dd74337f6f965d307e8c0fd7a5131064e1e371a5d1fb88894f70f767e0",
    },
    "family=standard\nm=3\nr=3\nscheme=r3\n": {
        "manifest": "b591aad70b1ad085f17e7e4098d8a6fa2d45b331375f76b42cc5e9668fa23410",
        "node_00": "cf01fe7c02fac02a40f9706a0b5c81a4e92f2807c9aec1c49042d666f16d2b23",
        "node_01": "24e0e06b6f77580c22013cc6e0bb8fa704233ae68aa7afa54a1dee6b3109f50a",
        "node_02": "f047da7c08ad8902dcfecfcc77b4e76931fcf1dc57d0dca91f730fe594b4cb09",
        "node_03": "81ca7c89c08145c3cc8b62f6891271aef73b02f2962cb6e8d20b1c833e40870f",
        "node_04": "d55972d938dbc4cacd9707af61774832d021a80f80194aa09dcf2b79c025c585",
        "node_05": "62cc67f823096e838f39a5a26db8db86b4bd5f80a65da875103930089cd47d85",
        "node_06": "8de4969159ba1b00533ae99e79582331014ccfa40bd3561bef11012f1ac537b6",
    },
    "family=weightw\nm=6\nw=3\nscheme=weightw\n": {
        "manifest": "02c20cf0a628f83f80a580cc64156aba285b6ee2f2a9f4a07e26a4f6e130fb6b",
        "node_00": "1881d73387558298adad651eb1b7fe6da19df5ce313f9ad79e0e365733ae5a96",
        "node_01": "80d82803795678119eeff3c3bc9c7df6018d0167d5df01ff1306d430cc40ea2e",
        "node_02": "752f024f4fc9da8551e32d5046f06780ed44f63b33824d2bd9cb625fa64bef13",
        "node_03": "a703c2544249424d9a9c6471489b295134809ae940b2b3fd506ceee716f1e8cd",
        "node_04": "980ec8b808d0fb51f8f0c64672540d8107d3eb8074afeea4ff8b40b256136fbd",
        "node_05": "d9d5303ed82eee2f8826d9d930126567c5eec43d7b02360fc9fe23d3df333d8a",
        "node_06": "256d990b209560171751726eac5af05eecb73b6c0263f84251cd65e4871c2b00",
        "node_07": "8c718f8fc5f252c8fc72f89d7a510e09d8e4eb0d84251e033af9e9bd26ce4d9e",
        "node_08": "bb41bb9ace3f946ece978ef976316f314dce6b2638cc55b980cea64bfa395ded",
        "node_09": "1ffe3c258b3b654ee530ffbafc9a917c618e3bdf998b963f6d2d88b62b544b81",
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
        bump(node, [t * p + node])
    capsys.readouterr()
    assert cli.main(["scrub", str(out)]) == 0
    text = capsys.readouterr().out
    assert all(f"corrected node_{node:02d}" in text for node in range(6))
    assert {name: read(out / name) for name in before} == before

    # node_01 in every stripe
    bump(1, [t * p + t % p for t in range(stripes)])
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
