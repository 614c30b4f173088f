#!/usr/bin/env python3
"""chromacode benchmark: one seeded workload per process, end to end or traced.

    python3 bench/run.py --workload stream --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1            # each in its own process
    python3 bench/run.py --workload all --seed 1 --smoke    # every oracle, in seconds

Run from the repository root.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 0 only when every oracle held.  See
bench/README.md for the workloads, metrics and the baseline failure sets.
"""

import os

# One thread of BLAS in this process and in the set-up probes it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import hashlib
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("stream", "plan", "bounds", "reproduce")
SETUP_SAMPLES = 7  # measured probes, after one discarded probe that warms the file cache
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import chromacode, chromacode.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)

# End-to-end metrics of the result line.  Op time is given in units of the
# reference kernel's time, read while the ops run, and latency percentiles are
# printed but not part of it: see "Run-to-run spread" in bench/README.md.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)
REF_EVERY_S = 0.1  # interval of the reference readings taken while ops run

# Per-layer metrics of a traced run: (name, unit, layer, field).
PER_LAYER = (
    ("coloring.exact.calls", "count", "coloring.exact", "calls"),
    ("coloring.exact.self_s", "s", "coloring.exact", "self_s"),
    ("coloring.exact.vertices", "count", "coloring.exact.vertices", "count"),
    ("coloring.exact.refusals", "count", "coloring.exact.refusals", "count"),
    ("coloring.scheme.self_s", "s", "coloring.scheme", "self_s"),
    ("coloring.validate.self_s", "s", "coloring.validate", "self_s"),
    ("codec.encode.calls", "count", "codec.encode", "calls"),
    ("codec.encode.self_s", "s", "codec.encode", "self_s"),
    ("codec.decode.calls", "count", "codec.decode", "calls"),
    ("codec.decode.self_s", "s", "codec.decode", "self_s"),
    ("codec.simulate.self_s", "s", "codec.simulate", "self_s"),
    ("codec.build.self_s", "s", "codec.build", "self_s"),
    ("codec.decoder_pairs", "count", "codec.decoder_pairs", "count"),
    ("chargraph.build.calls", "count", "chargraph.build", "calls"),
    ("chargraph.build.self_s", "s", "chargraph.build", "self_s"),
    ("entropy.huffman.calls", "count", "entropy.huffman", "calls"),
    ("entropy.huffman.self_s", "s", "entropy.huffman", "self_s"),
    ("orpower.power.calls", "count", "orpower.power", "calls"),
    ("orpower.power.self_s", "s", "orpower.power", "self_s"),
    ("orpower.vertices_built", "count", "orpower.vertices_built", "count"),
    ("spectral.eig.calls", "count", "spectral.eig", "calls"),
    ("spectral.eig.self_s", "s", "spectral.eig", "self_s"),
    ("spectral.eig.dim3", "count", "spectral.eig.dim3", "count"),
    ("spectral.split.self_s", "s", "spectral.split", "self_s"),
    ("spectral.gct.self_s", "s", "spectral.gct", "self_s"),
    ("spectral.bounds.self_s", "s", "spectral.bounds", "self_s"),
    ("expansion.calls", "count", "expansion", "calls"),
    ("expansion.self_s", "s", "expansion", "self_s"),
    ("entropy.window.calls", "count", "entropy.window", "calls"),
    ("entropy.window.self_s", "s", "entropy.window", "self_s"),
    ("entropy.window.failures", "count", "entropy.window.failures", "count"),
    ("graphs.mis.calls", "count", "graphs.mis", "calls"),
    ("graphs.mis.self_s", "s", "graphs.mis", "self_s"),
    ("entropy.brute.self_s", "s", "entropy.brute", "self_s"),
    ("cli.reproduce.self_s", "s", "cli.reproduce", "self_s"),
    ("trace_overhead", "ratio", None, None),
)


def info(line):
    print(line, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10, help="sizes each workload's work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced sizes: every oracle in seconds")
    return p.parse_args(argv)


# -- environment ------------------------------------------------------------------


def commit_hash():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "chromacode").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup():
    """Median import time of chromacode and chromacode.cli over fresh interpreters.

    Each probe is one interpreter, started after the previous one has exited.
    The first probe only warms the file cache and is not counted.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout))
    return statistics.median(samples[1:]), samples[1:]


# -- reference kernel ---------------------------------------------------------------


def reference_kernel():
    """Fixed pure-Python work of the kind chromacode's loops do: tuples, dict
    lookups and updates, small-int arithmetic.  ~0.8 ms on a 2.1 GHz Xeon."""
    table = {}
    for i in range(4000):
        key = (i & 63, i & 7)
        table[key] = table.get(key, 0) + i % 13
    return len(table)


class Reference:
    """Readings of the reference kernel's time while a pass runs.

    A wall-clock timer (SIGALRM, every REF_EVERY_S) takes the readings, so a
    long op is read during its run.  Each reading is the faster of two kernel
    runs; ``spent`` adds up the time readings took, which run_pass subtracts
    from the op they interrupted.
    """

    def __init__(self):
        self.stamps = []  # mid-time of each reading
        self.readings = []  # kernel seconds
        self.spent = 0.0

    def read(self, *_):
        t0 = time.perf_counter()
        runs = []
        for _ in range(2):
            t = time.perf_counter()
            reference_kernel()
            runs.append(time.perf_counter() - t)
        t1 = time.perf_counter()
        self.stamps.append((t0 + t1) / 2)
        self.readings.append(min(runs))
        self.spent += t1 - t0

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.read)
        self.read()
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.read()

    def scale(self, start, end):
        """Mean reading within one timer interval of [start, end]."""
        lo = bisect.bisect_left(self.stamps, start - REF_EVERY_S)
        hi = bisect.bisect_right(self.stamps, end + REF_EVERY_S)
        window = self.readings[lo:hi] or self.readings[max(lo - 1, 0) : lo + 1]
        return sum(window) / len(window)


# -- passes -------------------------------------------------------------------------


class Pass:
    """Op times, failures and result digests of one pass over a workload's ops."""

    def __init__(self):
        self.times = []  # seconds per op, failed ops included, readings excluded
        self.spans = []  # (start, end) of each op on the perf_counter clock
        self.ok = []
        self.failures = Counter()  # (op kind, exception type) -> count
        self.digests = []
        self.results = []

    @property
    def wall(self):
        return sum(self.times)

    def in_ref(self, ref):
        """Op times in units of the reference kernel's time around each op."""
        return [t / ref.scale(*span) for t, span in zip(self.times, self.spans)]

    def latency(self, ref=None):
        """Per-op latency in seconds, or in reference units; a failed op is +inf."""
        times = self.times if ref is None else self.in_ref(ref)
        return [t if ok else math.inf for t, ok in zip(times, self.ok)]


def run_pass(wl, probe, check, ref=None):
    """Run every op once; with ``ref``, take reference readings meanwhile."""
    with ref or contextlib.nullcontext():
        clock = time.perf_counter
        out = Pass()
        for i, op in enumerate(wl.ops):
            spent = ref.spent if ref else 0.0
            t0 = clock()
            try:
                result = probe.run_op(op.call)
                ok = True
            except op.fails as exc:
                ok = False
                failure = type(exc).__name__
            t1 = clock()
            out.spans.append((t0, t1))
            out.times.append(t1 - t0 - ((ref.spent if ref else 0.0) - spent))
            out.ok.append(ok)
            if not ok:
                out.failures[(op.kind, failure)] += 1
                out.digests.append(failure)
                out.results.append(None)
                continue
            out.digests.append(wl.digest(i, result))
            if check:
                wl.check(i, result)
            out.results.append(result if wl.keep_results else None)
    return out


def percentile(values, q):
    """Nearest-rank percentile; +inf entries (failed ops) sort last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- one workload ---------------------------------------------------------------------


def run_workload(args):
    if not (SRC / "chromacode" / "__init__.py").is_file():
        print(f"error: no chromacode sources under {SRC}", file=sys.stderr)
        return 2
    setup_s, setup_samples = measure_setup()

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    t = time.perf_counter()
    import chromacode
    import chromacode.cli  # noqa: F401
    import numpy

    own_import = time.perf_counter() - t
    import workloads

    info(
        f"env: commit {commit_hash()} src {source_digest()} python {platform.python_version()} "
        f"numpy {numpy.__version__} nproc {os.cpu_count()} affinity {len(os.sched_getaffinity(0))} "
        f"blas_threads {os.environ['OPENBLAS_NUM_THREADS']} pid {os.getpid()}"
    )
    info(
        f"setup: median {setup_s:.4f} s over {SETUP_SAMPLES} fresh interpreters "
        f"{[round(s, 4) for s in setup_samples]}; this process {own_import:.4f} s"
    )
    try:
        return measure(args, workloads.build(args.workload, args.seed, args.seconds, args.smoke), setup_s)
    except workloads.OracleError as exc:
        print(f"wrong output on {args.workload}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1


def measure(args, wl, setup_s):
    import layers

    info(f"workload: {wl.name} seed {args.seed} seconds {args.seconds} ops {len(wl.ops)} smoke {args.smoke}")

    ref = Reference()
    counter = layers.Probe(timed=False).install()
    plain = run_pass(wl, counter, check=True, ref=ref)
    counter.uninstall()
    for line in wl.finish(plain.results):
        info(line)
    attempted, failed = wl.rows(plain.results) or (len(wl.ops), sum(plain.failures.values()))
    counts = dict(counter.counts)
    info(f"counts: {json.dumps(counts, sort_keys=True)}")
    info(f"ops: attempted {len(wl.ops)} failed {sum(plain.failures.values())} by kind "
         f"{json.dumps({f'{k}:{e}': n for (k, e), n in sorted(plain.failures.items())})}")
    kinds = wl.failure_set(plain.failures, plain.results)
    info(f"failure set: {kinds}; baseline {sorted(wl.baseline_failures)}"
         f" ({'same' if kinds == sorted(wl.baseline_failures) else 'differs'})")

    if args.trace:
        tracer = layers.Probe(timed=True).install()
        traced = run_pass(wl, tracer, check=False)
        tracer.uninstall()
        if traced.digests != plain.digests:
            print("error: traced pass produced other outputs than the untraced pass", file=sys.stderr)
            return 1
        metrics = layer_metrics(tracer, traced.wall / plain.wall - 1)
        spans = OUT / f"spans-{wl.name}.npz"
        tracer.write_spans(spans)
        table = tracer.layer_table()
        layer_self = sum(s for name, (_, s) in table.items() if name != layers.OP)
        info(f"trace: {tracer.span_count()} spans written to {spans.relative_to(ROOT)}; "
             f"untraced wall {plain.wall:.4f} s, traced wall {traced.wall:.4f} s, "
             f"layer self time {layer_self:.4f} s, op glue {table[layers.OP][1]:.4f} s")
        info("trace: no layer has a queue, so waiting time does not apply")
        for name, (calls, self_s) in table.items():
            info(f"layer {name:18s} calls {calls:9d} self_s {self_s:.6f}")
        if layer_self > traced.wall:
            print("error: layer self times exceed the traced wall time", file=sys.stderr)
            return 1
    else:
        metrics = end_to_end(plain, ref, setup_s, attempted, failed)
        p50, p90 = (percentile(plain.latency(), q) * 1e3 for q in (0.5, 0.9))
        r50, r90 = (percentile(plain.latency(ref), q) for q in (0.5, 0.9))
        blocks = f"{counts['blocks_simulated'] / plain.wall:.1f} 1/s" if wl.name == "stream" else "n/a"
        info(f"end to end: setup_s {setup_s:.4f} s, wall_s {plain.wall:.4f} s, "
             f"op_p50_ms {p50:.4f} ms, op_p90_ms {p90:.4f} ms over {len(plain.times)} ops, "
             f"blocks_per_s {blocks}, fail_ratio {failed / attempted:.4f}, "
             f"peak_rss_mb {metrics['peak_rss_mb']['value']:.2f} MB")
        readings = ref.readings
        info(f"reference units: wall_ref {metrics['wall_ref']['value']:.1f}, op_p50_ref {r50:.4f}, "
             f"op_p90_ref {r90:.4f}; {len(readings)} kernel readings, median "
             f"{statistics.median(readings) * 1e3:.4f} ms, min {min(readings) * 1e3:.4f} ms, "
             f"max {max(readings) * 1e3:.4f} ms")
    info(f"threads {threading.active_count()}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(p, ref, setup_s, attempted, failed):
    values = {
        "setup_s": setup_s,
        "wall_ref": sum(p.in_ref(ref)),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(tracer, overhead):
    table = tracer.layer_table()
    out = {}
    for name, unit, layer, field in PER_LAYER:
        if layer is None:
            value = overhead
        elif field == "count":
            value = tracer.counts[layer]
        else:
            calls, self_s = table[layer]
            value = calls if field == "calls" else self_s
        out[name] = {"value": value, "unit": unit}
    return out


# -- all workloads ---------------------------------------------------------------------


def run_all(args):
    """Each workload in its own process, one after another."""
    bad = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        info(f"== {name}")
        done = subprocess.run(cmd, cwd=ROOT)
        if done.returncode != 0:
            bad.append(name)
    info(f"== failed workloads: {bad}" if bad else "== all workloads correct")
    return 1 if bad else 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
