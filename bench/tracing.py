"""Traced mode: spans around the zzmds layer entry points and call counts on
the hot arithmetic methods, all installed from outside the package.

A span records its name, start, end and parent.  The hot `Field`,
`VectorFamily` and `CodeSpec` methods get counts only, because a span per
call would swamp them.  A name that zzmds no longer has is reported as
missing and its metrics read 0; the run goes on.
"""

from __future__ import annotations

import importlib
import json
import random
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name).  Every binding of the function in a loaded
# zzmds module is replaced, so calls through `from x import y` names are seen.
SPANNED = (
    ("zzmds.cli", "main", "cli"),
    ("zzmds.codec", "encode", "codec.encode"),
    ("zzmds.codec", "rebuild_one", "codec.rebuild_one"),
    ("zzmds.codec", "decode_erasures", "codec.decode_erasures"),
    ("zzmds.codec", "decode_error", "codec.decode_error"),
    ("zzmds.codec", "syndrome", "codec.syndrome"),
    ("zzmds.gf", "solve_equations", "gf.solve"),
    ("zzmds.gf", "solve_linear", "gf.solve"),
    ("zzmds.construct", "build_code", "construct.build_code"),
    ("zzmds.files", "bytes_to_symbols", "files.pack"),
    ("zzmds.files", "symbols_to_bytes", "files.unpack"),
    ("zzmds.files", "read_columns", "files.read"),
    ("zzmds.files", "write_node_file", "files.write"),
    ("zzmds.files", "read_manifest", "files.manifest"),
    ("zzmds.files", "write_manifest", "files.manifest"),
)

# (module, class, method, counter name)
COUNTED = (
    ("zzmds.gf", "Field", "mul", "gf.mul_calls"),
    ("zzmds.gf", "Field", "add", "gf.add_calls"),
    ("zzmds.gf", "Field", "sub", "gf.sub_calls"),
    ("zzmds.gf", "Field", "inv", "gf.inv_calls"),
    ("zzmds.perms", "VectorFamily", "apply", "perms.apply_calls"),
    ("zzmds.perms", "VectorFamily", "unapply", "perms.apply_calls"),
    ("zzmds.construct", "CodeSpec", "zigzag_index", "construct.spec_lookup_calls"),
    ("zzmds.construct", "CodeSpec", "source_row", "construct.spec_lookup_calls"),
    ("zzmds.construct", "CodeSpec", "coefficient", "construct.spec_lookup_calls"),
    ("zzmds.construct", "CodeSpec", "access_rows", "construct.spec_lookup_calls"),
)

COMMANDS = ("encode", "rebuild", "decode", "scrub")

# Self time (s) of these span names, per traced lifecycle round.
SELF_TIME_METRICS = {f"cli.{c}_self_s": f"cli.{c}" for c in COMMANDS} | {
    "codec.encode_s": "codec.encode",
    "codec.rebuild_one_s": "codec.rebuild_one",
    "codec.decode_erasures_s": "codec.decode_erasures",
    "codec.decode_error_s": "codec.decode_error",
    "codec.syndrome_s": "codec.syndrome",
    "gf.solve_s": "gf.solve",
    "construct.build_code_s": "construct.build_code",
    "files.pack_s": "files.pack",
    "files.unpack_s": "files.unpack",
    "files.read_s": "files.read",
    "files.write_s": "files.write",
    "files.manifest_s": "files.manifest",
}
CALL_METRICS = {"gf.solve_calls": "gf.solve", "construct.build_code_calls": "construct.build_code"}
COUNTER_METRICS = ("gf.mul_calls", "gf.add_calls", "gf.sub_calls", "gf.inv_calls",
                   "perms.apply_calls", "construct.spec_lookup_calls", "codec.stripes",
                   "codec.rebuild_cells_read", "files.read_bytes", "files.write_bytes")
MICRO_METRICS = ("gf.mul_ns", "gf.add_ns", "perms.apply_ns")

UNITS = {"_s": "s", "_ns": "ns", "_bytes": "bytes", "_frac": "ratio"}

MICRO_BATCH = 20000
MICRO_REPEATS = 5


def unit_of(metric: str) -> str:
    return next((u for suffix, u in UNITS.items() if metric.endswith(suffix)), "count")


class Tracer:
    def __init__(self, io):
        self.io = io             # an iostat.IoCounter
        self.spans = []          # [name, start_ns, end_ns, parent index]
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._restore = []       # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        self.missing = []
        for module, fname, span in SPANNED:
            original = getattr(_module(module), fname, None)
            if original is None:
                self.missing.append(f"{module}.{fname}")
                continue
            wrapper = self._span_wrapper(original, span)
            for mod in [m for name, m in sys.modules.items()
                        if name == "zzmds" or name.startswith("zzmds.")]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for module, cname, meth, counter in COUNTED:
            cls = getattr(_module(module), cname, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                self.missing.append(f"{module}.{cname}.{meth}")
                continue
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._count_wrapper(original, counter))

    def remove(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, fn, span):
        spans, stack, counts, io = self.spans, self._stack, self.counts, self.io

        def wrapper(*args, **kwargs):
            name = span
            if span == "cli":
                argv = args[0] if args else kwargs.get("argv")
                name = f"cli.{argv[0] if argv else '?'}"
            io_before = (io.read_bytes() if span == "files.read" else
                         io.written_bytes() if span == "files.write" else None)
            rec = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if span == "files.read":
                counts["files.read_bytes"] += io.read_bytes() - io_before
            elif span == "files.write":
                counts["files.write_bytes"] += io.written_bytes() - io_before
            elif span == "codec.rebuild_one":
                counts["codec.rebuild_cells_read"] += getattr(result[1], "cells_read", 0)
            return result

        return wrapper

    def _count_wrapper(self, fn, counter):
        cell = self.counts

        def wrapper(*args, **kwargs):
            cell[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -------------------------------------------------------------

    def self_times(self):
        """(self ns by span name, calls by span name, stripe-level codec calls).

        A span inside a span of the same name (solve_linear calling
        solve_equations) is part of one call, as its caller sees it.
        """
        covered = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_ns, calls, stripes = defaultdict(int), Counter(), 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            self_ns[name] += end - start - covered[i]
            calls[name] += parent_name != name
            stripes += name.startswith("codec.") and parent_name.startswith("cli.")
        return self_ns, calls, stripes

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics, per traced lifecycle round."""
        self_ns, calls, stripes = self.self_times()
        counts = Counter(self.counts, **{"codec.stripes": stripes})
        out = {m: self_ns[s] / 1e9 / rounds for m, s in SELF_TIME_METRICS.items()}
        out.update({m: calls[s] / rounds for m, s in CALL_METRICS.items()})
        out.update({m: counts[m] / rounds for m in COUNTER_METRICS})
        return out

    def layer_self_times(self, rounds: int) -> dict:
        """Self time (s) per round summed by layer: the span name's prefix."""
        self_ns, _, _ = self.self_times()
        by_layer = defaultdict(float)
        for name, ns in self_ns.items():
            by_layer[name.split(".")[0]] += ns / 1e9 / rounds
        return dict(sorted(by_layer.items()))

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing,
                       "spans": [dict(zip(("name", "start_ns", "end_ns", "parent"), s))
                                 for s in self.spans]}, fh)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _ns_per_call(call, operands) -> float:
    times = []
    for _ in range(MICRO_REPEATS):
        start = time.perf_counter_ns()
        for args in operands:
            call(*args)
        times.append((time.perf_counter_ns() - start) / len(operands))
    return statistics.median(times)


def micro_metrics(spec, seed: int, missing: list) -> dict:
    """ns per call of Field.mul, Field.add and VectorFamily.apply on seeded
    operands over the workload's field and family."""
    rng = random.Random(seed)
    out = dict.fromkeys(MICRO_METRICS, 0.0)
    field = getattr(spec, "field", None)
    q = getattr(field, "q", None)
    for op in ("mul", "add"):
        call = getattr(field, op, None)
        if call is None or q is None:
            missing.append(f"CodeSpec.field.{op}")
            continue
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(MICRO_BATCH)]
        out[f"gf.{op}_ns"] = _ns_per_call(call, pairs)
    family = getattr(spec, "family", None)
    apply = getattr(family, "apply", None)
    if apply is None:
        missing.append("CodeSpec.family.apply")
    else:
        triples = [(rng.randrange(family.size), rng.randrange(family.r), rng.randrange(family.p))
                   for _ in range(MICRO_BATCH)]
        out["perms.apply_ns"] = _ns_per_call(apply, triples)
    return out
