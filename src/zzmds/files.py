"""On-disk layout for encoded directories.

A directory holds one binary `manifest` describing the code and payload, plus
one raw symbol-stream file per node (node_00, node_01, ...).  Symbols are
field elements, one per byte for q <= 256, little-endian pairs above that.
A node file's bytes are the node column the plan's kernel runs on
(`zzmds.plan`): a bytearray for 1-byte symbols, an array('H') for 2-byte
ones.  With T = stripe_count the column is row-major: row x of every stripe
is the one contiguous extent col[x*T:(x+1)*T], so a reader that needs some
rows reads only their extents.  The column form is defined here, by
`symbol_width`, and the plan builds its columns with it.  The manifest alone
gives each node file's size, so the files are checked before the code is
built.

Manifest layout: magic "ZZMDS1", version u8 (2: row-major node files), m/r/s
u8 each, field token and scheme token (u8 length + ascii), vector list (u16 LE
length + ascii), payload byte length u64 LE, stripe count u32 LE.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from typing import NamedTuple

from .construct import CodeSpec, build_code
from .gf import field_from_token
from .perms import format_vector_list

MAGIC = b"ZZMDS1"
VERSION = 2


class FormatError(ValueError):
    pass


class Manifest(NamedTuple):
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


def node_shape(mf: Manifest) -> tuple:
    """The node files' shape (n nodes of p symbols a stripe, over `field`),
    checked from the manifest alone, before any code is built: a garbled m
    would otherwise build a code of r^m rows first."""
    if mf.scheme == "table":
        raise FormatError("table-scheme directories carry no coefficient source")
    if mf.r < 2 or mf.m < 1 or mf.s < 1:
        raise FormatError(f"bad geometry m={mf.m} r={mf.r} s={mf.s}")
    field = field_from_token(mf.field_token)
    vectors = len(mf.vectors.split(","))
    p = mf.r ** mf.m
    if mf.stripe_count != -(-mf.payload_length * digits_per_byte(field.q) // (p * vectors * mf.s)):
        raise FormatError(f"stripe count {mf.stripe_count} does not fit "
                          f"{mf.payload_length} payload bytes")
    return vectors * mf.s + mf.r, p, field


def spec_from_manifest(mf: Manifest, field) -> CodeSpec:
    """The code of a manifest whose `node_shape` gave `field`."""
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


# -- node columns: a node file's symbols in memory ---------------------------


def zero_column(q: int, size: int):
    """A node column of `size` zero symbols."""
    return bytearray(size) if symbol_width(q) == 1 else array("H", bytes(2 * size))


def as_column(q: int, symbols):
    """A node column holding the given symbols: ints, or a node column (for
    2-byte symbols not a bytes object, which array('H') would read as raw
    bytes)."""
    return bytearray(symbols) if symbol_width(q) == 1 else array("H", symbols)


def _file_bytes(col) -> bytes:
    """A node column as its node file holds it."""
    if isinstance(col, array) and sys.byteorder == "big":
        col = array("H", col)
        col.byteswap()
    return bytes(col)


def _file_symbols(blob: bytes, q: int):
    """A node file's bytes as symbols a node column slice takes."""
    if symbol_width(q) == 1:
        return blob
    col = array("H", blob)
    if sys.byteorder == "big":
        col.byteswap()
    return col


def bytes_to_symbols(data: bytes, q: int):
    """Each byte as its d = digits_per_byte(q) base-q digits, most
    significant first: a node column of len(data) * d symbols, built by one
    translate per digit position."""
    d = digits_per_byte(q)
    if d == 1:
        return as_column(q, list(data))
    out = bytearray(len(data) * d)
    for j in range(d):
        out[j::d] = data.translate(bytes(b // q ** (d - 1 - j) % q for b in range(256)))
    return out


def symbols_to_bytes(symbols, q: int, nbytes: int) -> bytes:
    """The first nbytes groups of digits_per_byte(q) symbols as bytes.  Each
    group is one 16-bit lane of a big int, wide enough for any group of
    field elements, so a group past 255 is found, never carried into its
    neighbour."""
    d = digits_per_byte(q)
    if len(symbols) < nbytes * d:
        raise FormatError("not enough symbols for the recorded payload length")
    lanes = 0
    for j in range(d):
        digit = as_column(q, symbols[j:nbytes * d:d])
        if symbol_width(q) == 2:
            wide = _file_bytes(digit)
        else:
            wide = bytearray(2 * nbytes)
            wide[0::2] = digit
        lanes = lanes * q + int.from_bytes(wide, "little")
    wide = lanes.to_bytes(2 * nbytes, "little")
    if wide[1::2].count(0) != nbytes:
        raise FormatError("symbol group exceeds one byte; corrupt stream")
    return wide[0::2]


def node_filename(i: int) -> str:
    return f"node_{i:02d}"


def write_node_file(path: str, symbols, q: int) -> None:
    with open(path, "wb") as fh:
        fh.write(_file_bytes(as_column(q, symbols)))


def _runs(rows):
    """The runs [start, stop) of consecutive rows in the sorted `rows`."""
    runs = []
    for x in rows:
        if runs and runs[-1][1] == x:
            runs[-1][1] = x + 1
        else:
            runs.append([x, x + 1])
    return runs


def read_columns(directory: str, shape: tuple, stripe_count: int, rows=None):
    """Node files the kernels can use: ({node: node column}, {node: problem
    text}, bytes read), for the (n, p, field) of `node_shape`.

    `rows` ({node: sorted rows}) names the nodes to read and, of each, the
    rows: one os.pread per run of consecutive rows, into a column whose other
    rows are zero.  No rows only sizes the file.  Without `rows` every node
    file is read whole.  A file with a partial symbol, other than
    stripe_count * p symbols, or a symbol outside the field in the bytes read
    has a problem instead: the kernels index columns by row offset and tables
    by symbol, and check neither.
    """
    n, p, field = shape
    q, t = field.q, stripe_count
    width = symbol_width(q)
    valid = bytes(range(q)) if width == 1 else None
    columns, problems, nread = {}, {}, 0
    for i in range(n) if rows is None else sorted(rows):
        try:
            fh = open(os.path.join(directory, node_filename(i)), "rb", buffering=0)
        except FileNotFoundError:
            continue
        with fh:
            fd = fh.fileno()
            size = os.fstat(fd).st_size
            if size % width:
                problems[i] = "a partial symbol"
                continue
            if size != t * p * width:
                problems[i] = f"{size // width} symbols, not {t * p}"
                continue
            col = zero_column(q, t * p)
            for start, stop in _runs(range(p) if rows is None else rows[i]):
                blob = os.pread(fd, (stop - start) * t * width, start * t * width)
                nread += len(blob)
                part = _file_symbols(blob, q)
                if part.translate(None, valid) if width == 1 else max(part, default=0) >= q:
                    problems[i] = f"a symbol outside {field.token}"
                    break
                col[start * t:stop * t] = part
            else:
                columns[i] = col
    return columns, problems, nread
