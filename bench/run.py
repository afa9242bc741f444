"""Lifecycle benchmark of the zzmds command line.

Each round drives `zzmds.cli.main` in-process, on one thread, through
encode -> lose one systematic node -> rebuild -> lose r systematic nodes ->
decode --out -> scrub, and checks every output.  Node files and the manifest
are opaque bytes here: the benchmark uses only the CLI's arguments, its exit
codes and the printed `ratio` line.

    python3 bench/run.py --workload cons3-gf3 --seed 1 --seconds 30 --trace 0

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of the
traced run (see tracing.py), whose spans are written to bench/traces/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import checks
import tracing
from iostat import IoCounter
from workloads import WORKLOADS, expected_rebuild_ratio

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))

PAYLOAD_BYTES = 6000
# Each timed command repeats until it has run this long, so that its figure
# stays steady when the kernels get much faster.
MIN_SPAN_S = 0.25


def setup(wl, seed: int, work: Path):
    """Import zzmds afresh, make the payload, write the config, build the code."""
    for name in [n for n in sys.modules if n == "zzmds" or n.startswith("zzmds.")]:
        del sys.modules[name]
    cli = importlib.import_module("zzmds.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC_DIR):
        raise SystemExit(f"zzmds was imported from {cli.__file__}, not from {SRC_DIR}")
    rng = random.Random(seed)
    payload = rng.randbytes(PAYLOAD_BYTES)
    work.mkdir(parents=True)
    (work / "input.bin").write_bytes(payload)
    (work / "code.cfg").write_text(wl.config)
    spec = cli.parse_config(str(work / "code.cfg"))
    if (spec.n, spec.k, spec.r) != (wl.n, wl.k, wl.r):
        raise SystemExit(f"{wl.name}: zzmds built n={spec.n} k={spec.k} r={spec.r}, "
                         f"expected n={wl.n} k={wl.k} r={wl.r}")
    return cli, spec, payload, rng


class Lifecycle:
    def __init__(self, wl, cli, payload: bytes, rng: random.Random, work: Path):
        self.wl, self.cli, self.payload, self.rng = wl, cli, payload, rng
        self.input, self.config = work / "input.bin", work / "code.cfg"
        self.nodes, self.back = work / "nodes", work / "back.bin"
        self.attempted = self.failed = 0
        self.wrong_output = False
        self.samples = defaultdict(list)
        self.round_s = 0.0       # command time of the current round
        self.golden = {}         # file name -> bytes encode wrote
        self.io = IoCounter()

    def node(self, j: int) -> Path:
        return self.nodes / f"node_{j:02d}"

    def run(self, argv):
        """One CLI command: (exit code, seconds, stdout, stderr, bytes read)."""
        out, err = io.StringIO(), io.StringIO()
        before = self.io.read_bytes()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a crash is one failed command; the run goes on
            code = f"{type(e).__name__}: {e}"
        secs = time.perf_counter() - start
        return code, secs, out.getvalue(), err.getvalue(), self.io.read_bytes() - before

    def measure(self, command, argv, prepare, verify, min_span):
        """Repeat one step until its passing runs span `min_span`.

        `verify(stdout, nread)` returns (problems, {metric: sample}).  Only a
        passing run adds its seconds and samples; the first failure ends the step.
        """
        span, reps = 0.0, 0
        while reps == 0 or span < min_span:
            prepare()
            code, secs, stdout, stderr, nread = self.run([command, *map(str, argv)])
            self.attempted += 1
            problems, samples = checks.exit_code(command, code), {}
            if not problems:
                problems, samples = verify(stdout, nread)
                self.wrong_output |= bool(problems)
            if problems:
                self.failed += 1
                print("\n".join(problems + [stderr.strip()]).strip(), file=sys.stderr)
                break
            span += secs
            reps += 1
            for name, value in samples.items():
                self.samples[name].append(value)
        self.round_s += span
        if reps:
            self.samples[f"{command}_MBps"].append(reps * len(self.payload) / span / 1e6)

    def read_node(self, j: int):
        try:
            return self.node(j).read_bytes()
        except FileNotFoundError:
            return None

    def nodes_intact(self, which) -> list:
        return [p for j in which for p in checks.same_bytes(
            f"node_{j:02d}", self.golden.get(f"node_{j:02d}", b""), self.read_node(j))]

    def round(self, min_span: float):
        wl, rng = self.wl, self.rng
        lost = rng.randrange(wl.k)
        erased = sorted(rng.sample(range(wl.k), wl.r))
        corrupt = rng.randrange(wl.k)

        def after_encode(stdout, nread):
            self.golden = ({f.name: f.read_bytes() for f in self.nodes.iterdir()}
                           if self.nodes.is_dir() else {})
            problems = [f"encode: node_{j:02d} not written" for j in range(wl.n)
                        if f"node_{j:02d}" not in self.golden]
            overhead = sum(map(len, self.golden.values())) / len(self.payload)
            problems += checks.at_least("storage_overhead", overhead, Fraction(wl.n, wl.k))
            return problems, {"storage_overhead": overhead}

        self.measure("encode", [self.input, "--config", self.config, "--out", self.nodes],
                     lambda: shutil.rmtree(self.nodes, ignore_errors=True),
                     after_encode, min_span)

        survivors = sum(len(self.golden.get(f"node_{j:02d}", b""))
                        for j in range(wl.n) if j != lost)

        def after_rebuild(stdout, nread):
            frac = nread / max(survivors, 1)
            return (self.nodes_intact([lost])
                    + checks.ratio_line(stdout, expected_rebuild_ratio(wl, lost))
                    + checks.at_least("rebuild_read_frac", frac, Fraction(1, wl.r)),
                    {"rebuild_read_frac": frac})

        self.measure("rebuild", [self.nodes], lambda: self.node(lost).unlink(missing_ok=True),
                     after_rebuild, min_span)

        def before_decode():
            for j in erased:
                self.node(j).unlink(missing_ok=True)
            self.back.unlink(missing_ok=True)

        def after_decode(stdout, nread):
            got = self.back.read_bytes() if self.back.exists() else None
            return (checks.same_bytes("decoded payload", self.payload, got)
                    + self.nodes_intact(erased), {})

        self.measure("decode", [self.nodes, "--out", self.back], before_decode, after_decode,
                     min_span)

        # r=2 codes locate one bad column: swap two unequal bytes of one
        # systematic node.  r=3 scrub cannot locate yet, so it runs clean.
        corrupted = None
        if wl.r == 2 and self.golden.get(f"node_{corrupt:02d}"):
            data = bytearray(self.golden[f"node_{corrupt:02d}"])
            i = rng.randrange(len(data))
            j = rng.choice([j for j in range(len(data)) if data[j] != data[i]])
            data[i], data[j] = data[j], data[i]
            corrupted = bytes(data)

        def before_scrub():
            if corrupted is not None:
                self.node(corrupt).write_bytes(corrupted)

        self.measure("scrub", [self.nodes], before_scrub,
                     lambda stdout, nread: (self.nodes_intact(range(wl.n)), {}), min_span)


def measured(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median_or_zero(values) -> float:
    """The median; 0 when no command of that step passed in the whole run."""
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(lc: Lifecycle, setup_times) -> dict:
    out = {f"{c}_MBps": measured(median_or_zero(lc.samples[f"{c}_MBps"]), "MB/s")
           for c in tracing.COMMANDS}
    for name in ("rebuild_read_frac", "storage_overhead"):
        out[name] = measured(median_or_zero(lc.samples[name]), "ratio")
    out["setup_s"] = measured(statistics.median(setup_times), "s")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_MB"] = measured(rss_kib * 1024 / 1e6, "MB")
    return out


def traced_metrics(lc: Lifecycle, spec, seed: int, deadline: float, trace_path: Path) -> dict:
    """Alternate untraced and traced rounds, one run per command each."""
    tracer = tracing.Tracer(lc.io)
    untraced, traced = [], []
    while True:
        lc.round_s = 0.0
        lc.round(0.0)
        untraced.append(lc.round_s)
        lc.round_s = 0.0
        tracer.install()
        try:
            lc.round(0.0)
        finally:
            tracer.remove()
        traced.append(lc.round_s)
        if time.perf_counter() >= deadline:
            break
    values = tracer.layer_metrics(len(traced))
    values.update(tracing.micro_metrics(spec, seed, tracer.missing))
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(str(trace_path))
    layers = "  ".join(f"{k} {v:.4f}" for k, v in tracer.layer_self_times(len(traced)).items())
    print(f"self time per round (s): {layers}")
    print(f"traced rounds {len(traced)}, tracing overhead {values['trace.overhead_frac']:.3f}, "
          f"spans in {trace_path.relative_to(BENCH_DIR.parent)}")
    if tracer.missing:
        print("missing names (their metrics read 0): " + ", ".join(sorted(set(tracer.missing))))
    return {name: measured(v, tracing.unit_of(name)) for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    work = BENCH_DIR / "work" / f"{wl.name}-{os.getpid()}"
    try:
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        cli, spec, payload, rng = setup(wl, args.seed, work)
        setup_times = [time.perf_counter() - start]
        lc = Lifecycle(wl, cli, payload, rng, work)
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            trace_path = BENCH_DIR / "traces" / f"{wl.name}-seed{args.seed}.json"
            metrics = traced_metrics(lc, spec, args.seed, deadline, trace_path)
        else:
            # Set-up is timed again after every round, so that its median,
            # like the commands' medians, spans the whole run.
            while True:
                lc.round(MIN_SPAN_S)
                shutil.rmtree(work)  # the benchmark's clean-up, not timed
                start = time.perf_counter()
                lc.cli = setup(wl, args.seed, work)[0]
                setup_times.append(time.perf_counter() - start)
                gc.collect()  # free the replaced modules, so peak_rss_MB is the program's
                if time.perf_counter() >= deadline:
                    break
            metrics = end_to_end_metrics(lc, setup_times)
            print(f"{wl.name} seed {args.seed}: {len(setup_times) - 1} rounds")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not lc.wrong_output, "attempted": lc.attempted,
                      "failed": lc.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
