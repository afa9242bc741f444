"""Command line front end: stripe files across simulated node directories,
rebuild or decode lost nodes, scrub for corruption, verify MDS, report ratios.

Exit codes: 0 ok, 1 failed verification, 2 uncorrectable, 3 config/usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from . import files
from .construct import (MAX_VERIFY_CELLS, CodeSpecError, block_width, build_code,
                        default_field, verify_mds)
from .gf import FieldError, field_from_token
from .files import zero_column
from .plan import SingularMatrixError

CONFIG_KEYS = {"family", "vectors", "m", "r", "s", "scheme", "field", "w"}


class CliError(Exception):
    def __init__(self, message, code=3):
        super().__init__(message)
        self.code = code


def _config_values(path: str) -> dict:
    """The key=value pairs of a config file."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in CONFIG_KEYS:
                    raise CliError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value
    except OSError as e:
        raise CliError(f"cannot read config: {e}") from None
    return values


def _config_spec(values: dict):
    """The code a config's values describe."""
    scheme = values.get("scheme")
    if not scheme:
        raise CliError("config needs scheme=")
    family, vectors = values.get("family", "standard"), values.get("vectors")
    try:
        field = field_from_token(values["field"]) if "field" in values else None
        m = int(values["m"]) if "m" in values else None
        r = int(values["r"]) if "r" in values else None
        s = int(values.get("s", 1))
        w = int(values["w"]) if "w" in values else None
        spec = build_code(scheme, family=family, m=m, r=r, s=s, w=w, vectors=vectors,
                          field=field)
    except (CodeSpecError, FieldError, ValueError) as e:
        raise CliError(f"bad config: {e}") from None
    return spec


def parse_config(path: str):
    return _config_spec(_config_values(path))


def _load_dir(directory):
    """The manifest and the node files' (n, p, field), from the manifest alone."""
    manifest_path = os.path.join(directory, "manifest")
    if not os.path.exists(manifest_path):
        raise CliError(f"no manifest in {directory}")
    try:
        mf = files.read_manifest(manifest_path)
        return mf, files.node_shape(mf)
    except (files.FormatError, FieldError, ValueError) as e:
        raise CliError(f"bad manifest: {e}") from None


def _spec(mf, field):
    """The manifest's code, built once the node files have been counted."""
    try:
        return files.spec_from_manifest(mf, field)
    except (files.FormatError, CodeSpecError, FieldError, ValueError) as e:
        raise CliError(f"bad manifest: {e}") from None


def _read_nodes(directory, shape, mf, rows=None):
    """Node files that can be used as stored: ({node: column}, [invalid nodes],
    bytes read), of the nodes and rows `rows` names, or of every node whole.

    An invalid file (`files.read_columns`) is left out with a warning and so
    counts as an erasure.
    """
    columns, problems, nread = files.read_columns(directory, shape, mf.stripe_count, rows)
    for node, problem in sorted(problems.items()):
        print(f"warning: {files.node_filename(node)} holds {problem}; treating it as lost",
              file=sys.stderr)
    return columns, sorted(problems), nread


def _write_nodes(directory, spec, cols, nodes):
    """Write the node files of `nodes` from the node columns `cols`."""
    for node in nodes:
        files.write_node_file(os.path.join(directory, files.node_filename(node)),
                              cols[node], spec.field.q)


def _repair(spec, mf, cols, erased):
    """`CodePlan.repair`.  Returns the sorted corrected survivors, or None
    after reporting an uncorrectable stripe."""
    fixed, bad = spec.plan.repair(cols, mf.stripe_count, erased)
    if bad is not None:
        print(f"stripe {bad}: uncorrectable (more than one corrupted column)")
        return None
    return sorted(set(fixed.values()))


def _fraction_str(fr):
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def _proven(spec, values: dict) -> bool:
    """Whether a config stays in its construction's proven setting, where
    the code is MDS by the paper: a family the scheme builds itself, over
    the scheme's default field."""
    return values.get("family") != "explicit" and (
        "field" not in values or spec.field == default_field(
            spec.scheme, s=spec.s, m=spec.m, w=block_width(spec.family)))


def cmd_encode(args):
    values = _config_values(args.config)
    spec = _config_spec(values)
    # Outside the proven setting, refuse a code that `verify` shows is not
    # MDS; one too large to check is encoded unchecked.
    if not _proven(spec, values) and spec.p * spec.k <= MAX_VERIFY_CELLS:
        report = verify_mds(spec)
        if not report.is_mds:
            raise CliError(f"code is not MDS: erasure pattern {list(report.failing_pattern)} "
                           f"is not decodable")
    try:
        with open(args.input, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise CliError(f"cannot read input: {e}")
    q, p, k = spec.field.q, spec.p, spec.k
    symbols = files.bytes_to_symbols(data, q)
    cap = p * k
    nstripes = files.stripes_for(len(data), q, cap)
    symbols += zero_column(q, nstripes * cap - len(symbols))

    # stripe t of node j is symbols [t*cap + j*p, t*cap + (j+1)*p), so row x
    # of node j, its extent [x*nstripes, (x+1)*nstripes), is every cap-th
    # symbol from j*p + x
    per_node = [zero_column(q, nstripes * p) for _ in range(k)]
    for j, col in enumerate(per_node):
        for x in range(p):
            col[x * nstripes:(x + 1) * nstripes] = symbols[j * p + x::cap]
    per_node += spec.plan.encode(per_node, nstripes)

    os.makedirs(args.out, exist_ok=True)
    _write_nodes(args.out, spec, per_node, range(spec.n))
    files.write_manifest(os.path.join(args.out, "manifest"),
                         files.manifest_for(spec, len(data), nstripes))
    print(f"encoded {len(data)} bytes into {nstripes} stripes across "
          f"{spec.n} nodes ({spec.k} data + {spec.r} parity) in {args.out}")
    return 0


def _decode_payload(spec, mf, columns):
    """Recover the original byte payload from intact systematic columns."""
    q, p, k, t = spec.field.q, spec.p, spec.k, mf.stripe_count
    cap = p * k
    out = zero_column(q, t * cap)
    for j in range(k):
        for x in range(p):
            out[j * p + x::cap] = columns[j][x * t:(x + 1) * t]
    return files.symbols_to_bytes(out, q, mf.payload_length)


def cmd_rebuild(args):
    mf, shape = _load_dir(args.dir)
    n, _, field = shape
    if args.node is not None and not 0 <= args.node < n:
        raise CliError("missing node index out of range")
    # The files are first only sized: the lost node is the one absent or
    # mis-sized file, and its rebuild reads only its access rows of the
    # others.  With every file present they are read whole, so that a node
    # holding a symbol outside the field is found.
    present, _, _ = _read_nodes(args.dir, shape, mf, dict.fromkeys(range(n), ()))
    whole = len(present) == n
    if whole:
        present, _, nread = _read_nodes(args.dir, shape, mf)
    missing = [i for i in range(n) if i not in present]
    _one_missing(missing, args.node)
    lost = missing[0]

    spec = _spec(mf, field)
    plan = spec.plan.rebuild_plan(lost)
    if not whole:
        present, _, nread = _read_nodes(args.dir, shape, mf, plan.access)
        _one_missing([lost] + [i for i in plan.access if i not in present], args.node)
    cols = [present.get(i) for i in range(spec.n)]
    spec.plan.decode(cols, mf.stripe_count, [lost])
    _write_nodes(args.dir, spec, cols, [lost])

    print(f"rebuilt node_{lost:02d} ({mf.stripe_count} stripes)")
    if mf.stripe_count:
        for node in sorted(plan.access):
            print(f"  read node_{node:02d}: {plan.cells_in(node)} cells/stripe")
        print(f"ratio {_fraction_str(plan.ratio(spec))}")
    else:
        print("ratio 0 (empty payload)")
    survivors = (n - 1) * mf.stripe_count * spec.p * files.symbol_width(field.q)
    print(f"read {nread} of {survivors} survivor bytes")
    return 0


def _one_missing(missing, node):
    """Check that rebuild has exactly one node to restore, the one named."""
    if len(missing) != 1:
        raise CliError(f"{len(missing)} nodes missing; rebuild handles exactly one "
                       f"(use decode for multi-node loss)")
    if node is not None and node != missing[0]:
        raise CliError(f"node {node} file is present; node {missing[0]} is the missing one")


def cmd_decode(args):
    mf, shape = _load_dir(args.dir)
    n, _, field = shape
    present, _, _ = _read_nodes(args.dir, shape, mf)
    absent = [i for i in range(n) if i not in present]
    named = set()
    if args.missing:
        try:
            named = {int(tok) for tok in args.missing.split(",")}
        except ValueError:
            raise CliError("--missing takes a comma-separated list of node indices")
        if any(i < 0 or i >= n for i in named):
            raise CliError("missing node index out of range")
    # nodes named as missing are regenerated even if a (distrusted) file exists
    missing = sorted(named | set(absent))
    if len(missing) > mf.r:
        print(f"{len(missing)} nodes lost; only {mf.r} recoverable", file=sys.stderr)
        return 2
    if not missing and not args.out:
        print("nothing to decode")
        return 0

    spec = _spec(mf, field)
    cols = [present.get(i) for i in range(spec.n)]
    corrected = _repair(spec, mf, cols, missing)
    if corrected is None:
        return 2
    # The payload goes out before any node file is written: with e = r no
    # parity is left to check, and a stream that does not unpack, or an
    # --out the filesystem refuses (exit 3), must leave the directory as it was.
    if args.out:
        payload = _decode_payload(spec, mf, cols)
        with open(args.out, "wb") as fh:
            fh.write(payload)
    _write_nodes(args.dir, spec, cols, sorted(set(missing) | set(corrected)))
    print("restored " + " ".join(files.node_filename(i) for i in missing))
    for node in corrected:
        print(f"corrected node_{node:02d}")
    if args.out:
        print(f"wrote {len(payload)} payload bytes to {args.out}")
    return 0


def cmd_scrub(args):
    mf, shape = _load_dir(args.dir)
    n, _, field = shape
    present, invalid, _ = _read_nodes(args.dir, shape, mf)
    missing = [i for i in range(n) if i not in present and i not in invalid]
    if missing:
        raise CliError(f"{len(missing)} node files missing; scrub needs a complete "
                       f"directory (use rebuild/decode first)")

    # Invalid nodes cannot even enter the syndrome computation: they are
    # repaired as erasures.
    if len(invalid) > mf.r:
        print(f"{len(invalid)} nodes hold invalid symbols; beyond {mf.r}-erasure repair")
        return 2
    spec = _spec(mf, field)
    cols = [present.get(i) for i in range(spec.n)]
    corrected = _repair(spec, mf, cols, invalid)
    if corrected is None:
        return 2
    located = sorted(set(invalid) | set(corrected))
    _write_nodes(args.dir, spec, cols, located)
    if not located:
        print("no error")
    for node in located:
        print(f"corrected node_{node:02d}")
    return 0


def cmd_verify(args):
    spec = parse_config(args.config)
    try:
        report = verify_mds(spec)
    except ValueError as e:
        raise CliError(str(e))
    if report.is_mds:
        print(f"MDS: yes (checked {report.patterns_checked} patterns)")
        return 0
    print(f"MDS: no (first failing pattern: nodes {list(report.failing_pattern)}, "
          f"after {report.patterns_checked} patterns)")
    return 1


def cmd_ratio(args):
    from . import analysis   # only this command needs it; the others skip compiling it
    spec = parse_config(args.config)
    report = analysis.ratio_report(spec)
    print(f"code: {spec!r}")
    print(report.as_table())
    for line in report.as_kv_lines():
        print(line)
    return 0


def cmd_dump_coefficients(args):
    spec = parse_config(args.config)
    for row in range(spec.p):
        for col in range(spec.k):
            for sidx in range(1, spec.r):
                print(f"{row} {col} {sidx} {spec.coefficient(row, col, sidx)}")
    return 0


@cache
def build_parser():
    """The command line's parser, built once per process: parse_args keeps
    no state in it between calls."""
    parser = argparse.ArgumentParser(prog="zzmds",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="stripe a file across node files")
    p.add_argument("input")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("rebuild", help="restore a single lost node with minimal reads")
    p.add_argument("dir")
    p.add_argument("--node", type=int, default=None)
    p.set_defaults(func=cmd_rebuild)

    p = sub.add_parser("decode", help="restore up to r lost nodes")
    p.add_argument("dir")
    p.add_argument("--missing", default=None, help="comma-separated node indices")
    p.add_argument("--out", default=None, help="also write the reassembled payload here")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("scrub", help="detect, locate and fix a corrupted node")
    p.add_argument("dir")
    p.set_defaults(func=cmd_scrub)

    p = sub.add_parser("verify", help="exhaustively check the MDS property")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ratio", help="report predicted/measured rebuild ratios")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("dump-coefficients", help="emit the coefficient table")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_dump_coefficients)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (files.FormatError, OSError) as e:
        # a node file, manifest or output path the filesystem refuses
        print(f"error: {e}", file=sys.stderr)
        return 3
    except SingularMatrixError as e:
        # a config can parse and still not be MDS: its pattern is undecodable
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
