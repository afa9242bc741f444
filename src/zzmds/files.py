"""On-disk layout for encoded directories, and the only module that reads or
writes one.

A directory holds one binary `manifest` describing the code and payload, plus
one raw symbol-stream file per node (node_00, node_01, ...).  Symbols are
field elements, one per byte for q <= 256, little-endian pairs above that.
A node file's bytes are the node column the plan's kernel runs on
(`zzmds.plan`): a bytearray for 1-byte symbols, an array('H') for 2-byte
ones.  With T = stripe_count the column is row-major: row x of every stripe
is the one contiguous extent col[x*T:(x+1)*T], so a reader that needs some
rows reads only their extents.  The column form is defined here, by
`symbol_width`, and the plan builds its columns with it.  An `EncodedDir` is
opened from its manifest alone, which gives each node file's size, so the
files are checked (`read_columns`) before the code is built.

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
TOKENS = ("<B", "<B", "<H")   # the length formats of the field, scheme and vector tokens


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
    blob = MAGIC + struct.pack("<BBBB", VERSION, mf.m, mf.r, mf.s)
    for fmt, token in zip(TOKENS, (mf.field_token, mf.scheme, mf.vectors)):
        token = token.encode("ascii")
        blob += struct.pack(fmt, len(token)) + token
    blob += struct.pack("<Q", mf.payload_length) + struct.pack("<I", mf.stripe_count)
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
        tokens = []
        for fmt in TOKENS:
            (size,) = struct.unpack_from(fmt, blob, pos)
            pos += struct.calcsize(fmt)
            tokens.append(blob[pos:pos + size].decode("ascii"))
            pos += size
        (payload_length,) = struct.unpack_from("<Q", blob, pos)
        pos += 8
        (stripe_count,) = struct.unpack_from("<I", blob, pos)
        pos += 4
    except (struct.error, UnicodeDecodeError) as e:
        raise FormatError(f"truncated or garbled manifest: {e}") from None
    if pos != len(blob):
        raise FormatError("trailing bytes after manifest")
    return Manifest(m, r, s, *tokens, payload_length, stripe_count)


class EncodedDir:
    """An encoded directory at `path`, from its manifest file or the one
    `encode` writes: n node files, the first k systematic, of T = `stripes`
    stripes of p symbols of `field`.  The manifest is checked alone, before
    any code is built, as a garbled m would build r^m rows; a bad one, or
    none, is a FormatError."""

    def __init__(self, path: str, manifest: Manifest = None):
        self.path = path
        if manifest is None and not os.path.exists(self.file("manifest")):
            raise FormatError(f"no manifest in {path}")
        try:
            mf = read_manifest(self.file("manifest")) if manifest is None else manifest
            if mf.r < 2 or mf.m < 1 or mf.s < 1:
                raise FormatError(f"bad geometry m={mf.m} r={mf.r} s={mf.s}")
            field = field_from_token(mf.field_token)
            k, p = len(mf.vectors.split(",")) * mf.s, mf.r ** mf.m
            if mf.stripe_count != stripes_for(mf.payload_length, field.q, p * k):
                raise FormatError(f"stripe count {mf.stripe_count} does not fit "
                                  f"{mf.payload_length} payload bytes")
        except ValueError as e:
            raise FormatError(f"bad manifest: {e}") from None
        self.manifest, self.field, self.stripes = mf, field, mf.stripe_count
        self.n, self.p, self.k = k + mf.r, p, k

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def spec(self) -> CodeSpec:
        """The manifest's code, built once the node files have been counted."""
        mf = self.manifest
        try:
            spec = build_code(mf.scheme, family="explicit", vectors=mf.vectors,
                              m=mf.m, r=mf.r, s=mf.s, field=self.field)
            if spec.m != mf.m or spec.r != mf.r:
                raise FormatError("manifest geometry disagrees with its vector list")
        except ValueError as e:
            raise FormatError(f"bad manifest: {e}") from None
        return spec

    def write(self, cols, nodes) -> None:
        """Write the node files of `nodes` from the node columns `cols`."""
        for node in nodes:
            write_node_file(self.file(node_filename(node)), cols[node])

    def payload(self, cols) -> bytes:
        """The payload, from the k systematic node columns of `cols`."""
        return unpack(cols[:self.k], self.field.q, self.p, self.stripes,
                      self.manifest.payload_length)


def encode(path: str, spec: CodeSpec, data: bytes) -> EncodedDir:
    """Encode the payload at `path`: the node files, then the manifest."""
    cols, count = pack(data, spec.field.q, spec.p, spec.k)
    out = EncodedDir(path, Manifest(spec.m, spec.r, spec.s, spec.field.token, spec.scheme,
                                    format_vector_list(spec.family.vectors), len(data), count))
    os.makedirs(path, exist_ok=True)
    out.write(cols + spec.plan.encode(cols, count), range(spec.n))
    write_manifest(out.file("manifest"), out.manifest)
    return out


# -- symbol packing ----------------------------------------------------------


def digits_per_byte(q: int) -> int:
    """How many base-q symbols carry one byte."""
    d, span = 1, q
    while span < 256:
        d += 1
        span *= q
    return d


def stripes_for(payload_length: int, q: int, cap: int) -> int:
    """The stripes of cap = p * k symbols that hold a payload of that many
    bytes, packed by `bytes_to_symbols`."""
    return -(-payload_length * digits_per_byte(q) // cap)


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


def _swapped(col):
    """A node column in its node file's byte order, or the reverse: the
    column itself, or a byte-swapped copy of 2-byte symbols on a big-endian
    machine."""
    if isinstance(col, array) and sys.byteorder == "big":
        col = array("H", col)
        col.byteswap()
    return col


def _file_symbols(blob: bytes, q: int):
    """A node file's bytes as symbols a node column slice takes."""
    return blob if symbol_width(q) == 1 else _swapped(array("H", blob))


def bytes_to_symbols(data: bytes, q: int):
    """Each byte as its d = digits_per_byte(q) base-q digits, most
    significant first: a node column of len(data) * d symbols, built by one
    translate per digit position.  Digit j's table is a run of each of
    0..q-1, q**(d-1-j) long, cycled over the 256 byte values."""
    d = digits_per_byte(q)
    if d == 1:
        return as_column(q, list(data))
    out = bytearray(len(data) * d)
    for j in range(d):
        runs = b"".join(bytes((v,)) * q ** (d - 1 - j) for v in range(q))
        out[j::d] = data.translate((runs * -(-256 // len(runs)))[:256])
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
            wide = _swapped(digit)
        else:
            wide = bytearray(2 * nbytes)
            wide[0::2] = digit
        lanes = lanes * q + int.from_bytes(wide, "little")
    wide = lanes.to_bytes(2 * nbytes, "little")
    if wide[1::2].count(0) != nbytes:
        raise FormatError("symbol group exceeds one byte; corrupt stream")
    return wide[0::2]


def pack(data: bytes, q: int, p: int, k: int):
    """The payload's k systematic node columns and stripe count T: stripe t
    of node j holds symbols [t*cap + j*p, t*cap + (j+1)*p) of its
    `bytes_to_symbols`, zero-padded to whole stripes of cap = p * k."""
    symbols = bytes_to_symbols(data, q)
    cap = p * k
    count = stripes_for(len(data), q, cap)
    symbols += zero_column(q, count * cap - len(symbols))
    # row x of node j, its extent [x*T, (x+1)*T), is every cap-th symbol from j*p + x
    cols = [zero_column(q, count * p) for _ in range(k)]
    for j, col in enumerate(cols):
        for x in range(p):
            col[x * count:(x + 1) * count] = symbols[j * p + x::cap]
    return cols, count


def unpack(cols, q: int, p: int, count: int, nbytes: int) -> bytes:
    """The nbytes payload bytes that `pack` laid out in `cols` over `count` stripes."""
    cap = p * len(cols)
    symbols = zero_column(q, count * cap)
    for j, col in enumerate(cols):
        for x in range(p):
            symbols[j * p + x::cap] = col[x * count:(x + 1) * count]
    return symbols_to_bytes(symbols, q, nbytes)


def node_filename(i: int) -> str:
    return f"node_{i:02d}"


def write_node_file(path: str, col) -> None:
    """Write a node column to its node file, as it is."""
    with open(path, "wb") as fh:
        fh.write(_swapped(col))


def _runs(rows):
    """The runs [start, stop) of consecutive rows in the sorted `rows`."""
    runs = []
    for x in rows:
        if runs and runs[-1][1] == x:
            runs[-1][1] = x + 1
        else:
            runs.append([x, x + 1])
    return runs


def read_columns(directory: EncodedDir, rows=None):
    """The directory's node files the kernels can use: ({node: node column},
    {node: problem text}, bytes read).

    `rows` ({node: sorted rows}) names the nodes to read and, of each, the
    rows: one os.pread per run of consecutive rows, into a column whose other
    rows are zero.  No rows only sizes the file.  Without `rows` every node
    file is read whole, in one os.pread.  A file with a partial symbol, other
    than T * p symbols, or a symbol outside the field in the bytes
    read has a problem instead: the kernels index columns by row offset and
    tables by symbol, and check neither.
    """
    p, field, t, q = directory.p, directory.field, directory.stripes, directory.field.q
    width = symbol_width(q)
    valid = bytes(range(q)) if width == 1 else None
    columns, problems, nread = {}, {}, 0
    for i in range(directory.n) if rows is None else sorted(rows):
        try:
            fh = open(directory.file(node_filename(i)), "rb", buffering=0)
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
            for start, stop in [(0, p)] if rows is None else _runs(rows[i]):
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
