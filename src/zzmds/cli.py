"""Command line front end: stripe files across simulated node directories,
rebuild or decode lost nodes, scrub for corruption, verify MDS, report ratios.

Exit codes: 0 ok, 1 failed verification, 2 uncorrectable, 3 config/usage error.
Only `verify`, `ratio` and an unproven `encode` import `zzmds.analysis`.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import files
from .construct import CodeSpecError, build_code, default_field
from .gf import FieldError, field_from_token
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


def _read_nodes(directory, rows=None):
    """`files.read_columns` as ({node: column}, [invalid nodes], bytes read): an
    invalid file is left out with a warning and so counts as an erasure."""
    columns, problems, nread = files.read_columns(directory, rows)
    for node, problem in sorted(problems.items()):
        print(f"warning: {files.node_filename(node)} holds {problem}; treating it as lost",
              file=sys.stderr)
    return columns, sorted(problems), nread


def _repair(spec, directory, cols, erased):
    """`CodePlan.repair`.  Returns the sorted corrected survivors, or None
    after reporting an uncorrectable stripe."""
    fixed, bad = spec.plan.repair(cols, directory.stripes, erased)
    if bad is not None:
        print(f"stripe {bad}: uncorrectable (more than one corrupted column)")
        return None
    return sorted(set(fixed.values()))


def _fraction_str(fr):
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def _proven(spec, values: dict) -> bool:
    """Whether a config stays in its construction's proven setting, where
    the code is MDS by the paper: a family the scheme builds itself, over
    the scheme's default field (a built weightw family's w is the weight of
    any of its vectors)."""
    return values.get("family") != "explicit" and (
        "field" not in values or spec.field == default_field(
            spec.scheme, s=spec.s, m=spec.m, w=spec.family.vectors[0].weight))


def cmd_encode(args):
    values = _config_values(args.config)
    spec = _config_spec(values)
    # Outside the proven setting, refuse a code that `verify` shows is not
    # MDS; one too large to check is encoded unchecked.
    if not _proven(spec, values):
        from . import analysis
        if spec.p * spec.k <= analysis.MAX_DESK_CELLS:
            report = analysis.verify_mds(spec)
            if not report.is_mds:
                raise CliError(f"code is not MDS: erasure pattern "
                               f"{list(report.failing_pattern)} is not decodable")
    try:
        with open(args.input, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise CliError(f"cannot read input: {e}")
    out = files.encode(args.out, spec, data)
    print(f"encoded {len(data)} bytes into {out.stripes} stripes across "
          f"{spec.n} nodes ({spec.k} data + {spec.r} parity) in {args.out}")
    return 0


def cmd_rebuild(args):
    directory = files.EncodedDir(args.dir)
    n, count = directory.n, directory.stripes
    if args.node is not None and not 0 <= args.node < n:
        raise CliError("missing node index out of range")
    # The files are first only sized: the lost node is the one absent or
    # mis-sized file, and its rebuild reads only its access rows of the
    # others.  With every file present they are read whole, so that a node
    # holding a symbol outside the field is found, and the code is built
    # before that count is judged, so that a garbled manifest is named first.
    present, _, _ = _read_nodes(directory, dict.fromkeys(range(n), ()))
    whole = len(present) == n
    if not whole:
        _one_missing([i for i in range(n) if i not in present], args.node)
    spec = directory.spec()
    if whole:
        present, _, nread = _read_nodes(directory)
    lost = _one_missing([i for i in range(n) if i not in present], args.node)

    plan = spec.plan.rebuild_plan(lost)
    if not whole:
        present, _, nread = _read_nodes(directory, plan.access)
        _one_missing([lost] + [i for i in plan.access if i not in present], args.node)
    cols = [present.get(i) for i in range(n)]
    spec.plan.decode(cols, count, [lost])
    directory.write(cols, [lost])

    print(f"rebuilt node_{lost:02d} ({count} stripes)")
    if count:
        for node in sorted(plan.access):
            print(f"  read node_{node:02d}: {plan.cells_in(node)} cells/stripe")
        print(f"ratio {_fraction_str(plan.ratio(spec))}")
    else:
        print("ratio 0 (empty payload)")
    survivors = (n - 1) * count * spec.p * files.symbol_width(spec.field.q)
    print(f"read {nread} of {survivors} survivor bytes")
    return 0


def _one_missing(missing, node):
    """The one node rebuild restores, checked to be the one named."""
    if len(missing) != 1:
        raise CliError(f"{len(missing)} nodes missing; rebuild handles exactly one "
                       f"(use decode for multi-node loss)")
    if node is not None and node != missing[0]:
        raise CliError(f"node {node} file is present; node {missing[0]} is the missing one")
    return missing[0]


def cmd_decode(args):
    directory = files.EncodedDir(args.dir)
    n, r = directory.n, directory.manifest.r
    present, _, _ = _read_nodes(directory)
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
    if len(missing) > r:
        print(f"{len(missing)} nodes lost; only {r} recoverable", file=sys.stderr)
        return 2
    if not missing and not args.out:
        print("nothing to decode")
        return 0

    spec = directory.spec()
    cols = [present.get(i) for i in range(n)]
    corrected = _repair(spec, directory, cols, missing)
    if corrected is None:
        return 2
    # The payload goes out before any node file is written: with e = r no
    # parity is left to check, and a stream that does not unpack, or an
    # --out the filesystem refuses (exit 3), must leave the directory as it was.
    if args.out:
        payload = directory.payload(cols)
        with open(args.out, "wb") as fh:
            fh.write(payload)
    directory.write(cols, sorted(set(missing) | set(corrected)))
    print("restored " + " ".join(files.node_filename(i) for i in missing))
    for node in corrected:
        print(f"corrected node_{node:02d}")
    if args.out:
        print(f"wrote {len(payload)} payload bytes to {args.out}")
    return 0


def cmd_scrub(args):
    directory = files.EncodedDir(args.dir)
    n, r = directory.n, directory.manifest.r
    present, invalid, _ = _read_nodes(directory)
    missing = [i for i in range(n) if i not in present and i not in invalid]
    if missing:
        raise CliError(f"{len(missing)} node files missing; scrub needs a complete "
                       f"directory (use rebuild/decode first)")

    # Invalid nodes cannot even enter the syndrome computation: they are
    # repaired as erasures.
    if len(invalid) > r:
        print(f"{len(invalid)} nodes hold invalid symbols; beyond {r}-erasure repair")
        return 2
    spec = directory.spec()
    cols = [present.get(i) for i in range(n)]
    corrected = _repair(spec, directory, cols, invalid)
    if corrected is None:
        return 2
    located = sorted(set(invalid) | set(corrected))
    directory.write(cols, located)
    if not located:
        print("no error")
    for node in located:
        print(f"corrected node_{node:02d}")
    return 0


def cmd_verify(args):
    from . import analysis
    spec = parse_config(args.config)
    try:
        report = analysis.verify_mds(spec)
    except ValueError as e:
        raise CliError(str(e))
    if report.is_mds:
        print(f"MDS: yes (checked {report.patterns_checked} patterns)")
        return 0
    print(f"MDS: no (first failing pattern: nodes {list(report.failing_pattern)}, "
          f"after {report.patterns_checked} patterns)")
    return 1


def cmd_ratio(args):
    from . import analysis
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
