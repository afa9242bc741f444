"""On-disk layout for encoded directories.

A directory holds one binary `manifest` describing the code and payload, plus
one raw symbol-stream file per node (node_00, node_01, ...).  Symbols are
field elements, one per byte for q <= 256, little-endian pairs above that.

Manifest layout: magic "ZZMDS1", version u8, m/r/s u8 each, field token and
scheme token (u8 length + ascii), vector list (u16 LE length + ascii),
payload byte length u64 LE, stripe count u32 LE.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

from .construct import CodeSpec, build_code
from .gf import field_from_token
from .perms import format_vector_list

MAGIC = b"ZZMDS1"
VERSION = 1


class FormatError(ValueError):
    pass


@dataclass
class Manifest:
    m: int
    r: int
    s: int
    field_token: str
    scheme: str
    vectors: str
    payload_length: int
    stripe_count: int


def write_manifest(path: str, mf: Manifest) -> None:
    field_tok = mf.field_token.encode("ascii")
    scheme_tok = mf.scheme.encode("ascii")
    vec_tok = mf.vectors.encode("ascii")
    blob = (MAGIC
            + struct.pack("<BBBB", VERSION, mf.m, mf.r, mf.s)
            + struct.pack("<B", len(field_tok)) + field_tok
            + struct.pack("<B", len(scheme_tok)) + scheme_tok
            + struct.pack("<H", len(vec_tok)) + vec_tok
            + struct.pack("<Q", mf.payload_length)
            + struct.pack("<I", mf.stripe_count))
    with open(path, "wb") as fh:
        fh.write(blob)


def read_manifest(path: str) -> Manifest:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:6] != MAGIC:
        raise FormatError("bad magic; not an encoded directory manifest")
    try:
        pos = 6
        version, m, r, s = struct.unpack_from("<BBBB", blob, pos)
        pos += 4
        if version != VERSION:
            raise FormatError(f"unsupported manifest version {version}")
        (flen,) = struct.unpack_from("<B", blob, pos)
        pos += 1
        field_token = blob[pos:pos + flen].decode("ascii")
        pos += flen
        (slen,) = struct.unpack_from("<B", blob, pos)
        pos += 1
        scheme = blob[pos:pos + slen].decode("ascii")
        pos += slen
        (vlen,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        vectors = blob[pos:pos + vlen].decode("ascii")
        pos += vlen
        (payload_length,) = struct.unpack_from("<Q", blob, pos)
        pos += 8
        (stripe_count,) = struct.unpack_from("<I", blob, pos)
        pos += 4
    except (struct.error, UnicodeDecodeError) as e:
        raise FormatError(f"truncated or garbled manifest: {e}") from None
    if pos != len(blob):
        raise FormatError("trailing bytes after manifest")
    return Manifest(m, r, s, field_token, scheme, vectors, payload_length, stripe_count)


def manifest_for(spec: CodeSpec, payload_length: int, stripe_count: int) -> Manifest:
    return Manifest(spec.m, spec.r, spec.s, spec.field.token, spec.scheme,
                    format_vector_list(spec.family.vectors),
                    payload_length, stripe_count)


def spec_from_manifest(mf: Manifest) -> CodeSpec:
    if mf.scheme == "table":
        raise FormatError("table-scheme directories carry no coefficient source")
    # Checked from the manifest alone, before building the code: a garbled m
    # would otherwise build a code of r^m rows first.
    if mf.r < 2 or mf.m < 1 or mf.s < 1:
        raise FormatError(f"bad geometry m={mf.m} r={mf.r} s={mf.s}")
    field = field_from_token(mf.field_token)
    per_stripe = mf.r ** mf.m * len(mf.vectors.split(",")) * mf.s
    if mf.stripe_count != -(-mf.payload_length * digits_per_byte(field.q) // per_stripe):
        raise FormatError(f"stripe count {mf.stripe_count} does not fit "
                          f"{mf.payload_length} payload bytes")
    spec = build_code(mf.scheme, family="explicit", vectors=mf.vectors,
                      m=mf.m, r=mf.r, s=mf.s, field=field)
    if spec.m != mf.m or spec.r != mf.r:
        raise FormatError("manifest geometry disagrees with its vector list")
    return spec


# -- symbol packing ----------------------------------------------------------


def digits_per_byte(q: int) -> int:
    """How many base-q symbols carry one byte."""
    d, span = 1, q
    while span < 256:
        d += 1
        span *= q
    return d


def symbol_width(q: int) -> int:
    return 1 if q <= 256 else 2


def bytes_to_symbols(data: bytes, q: int):
    d = digits_per_byte(q)
    out = []
    for byte in data:
        group = []
        v = byte
        for _ in range(d):
            group.append(v % q)
            v //= q
        out.extend(reversed(group))
    return out


def symbols_to_bytes(symbols, q: int, nbytes: int) -> bytes:
    d = digits_per_byte(q)
    if len(symbols) < nbytes * d:
        raise FormatError("not enough symbols for the recorded payload length")
    out = bytearray(nbytes)
    pos = 0
    for i in range(nbytes):
        v = 0
        for _ in range(d):
            v = v * q + symbols[pos]
            pos += 1
        if v > 255:
            raise FormatError("symbol group exceeds one byte; corrupt stream")
        out[i] = v
    return bytes(out)


def node_filename(i: int) -> str:
    return f"node_{i:02d}"


def write_node_file(path: str, symbols, q: int) -> None:
    if symbol_width(q) == 1:
        blob = bytes(symbols)
    else:
        blob = b"".join(struct.pack("<H", v) for v in symbols)
    with open(path, "wb") as fh:
        fh.write(blob)


def _unpack(blob: bytes, q: int):
    if symbol_width(q) == 1:
        return list(blob)
    return [v for (v,) in struct.iter_unpack("<H", blob)]


def read_columns(directory: str, spec: CodeSpec, stripe_count: int):
    """Node files the kernels can use: ({node: symbols}, {node: problem text}).

    A file with a partial symbol, other than stripe_count * p symbols, or a
    symbol outside the field has a problem instead: the kernels index columns
    by stripe offset and tables by symbol, and check neither.
    """
    q, width, want = spec.field.q, symbol_width(spec.field.q), stripe_count * spec.p
    columns, problems = {}, {}
    for i in range(spec.n):
        path = os.path.join(directory, node_filename(i))
        if not os.path.exists(path):
            continue
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) % width:
            problems[i] = "a partial symbol"
        elif len(blob) != want * width:
            problems[i] = f"{len(blob) // width} symbols, not {want}"
        elif (blob.translate(None, bytes(range(q))) if width == 1
              else any(v >= q for (v,) in struct.iter_unpack("<H", blob))):
            problems[i] = f"a symbol outside {spec.field.token}"
        else:
            columns[i] = _unpack(blob, q)
    return columns, problems
