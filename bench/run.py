"""simpeff benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a simpeff checkout:

    python3 bench/run.py --workload segal-groups --seed 1 --seconds 25 --trace 0

It drives `simpeff.cli.main(argv)` as a closed loop with one client: one
invocation at a time, each forked from a process that has only imported
simpeff (zygote.py; BLAS pinned to one thread), so no invocation sees state
an earlier one left behind, just as a user starting the CLI afresh would
not.  A pass runs the workload's invocations once; after MIN_PASSES, a new
pass starts only while it is expected to end within --seconds.  Every
output is checked by the oracle (outside the timed region) and must be
byte-identical across the passes of one seed.

Times are scaled for host speed: after each invocation the runner times a
fixed reference computation (calibrate.py) about once per REFERENCE_EVERY_S
of invocation time, and scales the times of each pass, and of each set-up,
by NOMINAL_S over the median reference time taken during it.  The raw times
are printed too.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the run alternates untraced and traced passes and reports
per-layer metrics from the spans (see tracer.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import inputs
import tracer
from workloads import WORKLOADS
from zygote import Zygote

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 2
REFERENCE_EVERY_S = 0.5
# The tail is the highest of these percentiles with at least ten samples beyond
# it, and p90 when none has.  Percentiles below p90 are never used: with a few
# invocations per pass, a lower percentile would land in a faster invocation
# kind whenever the pass count changed, so it would jump with speed.
TAIL_PERCENTILES = (99.9, 99, 95, 90)
TAIL_MIN_BEYOND = 10
WORK_DIR = ".bench_work"
TRACE_DIR = ".bench_trace"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import simpeff.cli; "
                "print(time.perf_counter() - t)")


class Result:
    """What one invocation did: exit code, output bytes, wall time, peak RSS."""

    def __init__(self, code, stdout, stderr, out, latency, maxrss_kb, spans):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.out = out
        self.latency = latency
        self.maxrss_kb = maxrss_kb
        self.spans = spans

    def digest(self):
        h = hashlib.sha256(str(self.code).encode())
        for part in (self.stdout, self.out or b""):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
        return h.hexdigest()


def _read_bytes(path):
    """The file's bytes, or None when it does not exist."""
    if not path or not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


class Runner:
    """Runs CLI invocations one at a time through a fork server and checks
    what they produced.  Use as a context manager, or call close()."""

    def __init__(self, src, work):
        self.work = work
        self.zygote = Zygote(src)
        self.verified = {}  # label -> digest of the first output the oracle accepted
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference_s = []  # every reference time, in order

    def close(self):
        self.zygote.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def reference(self):
        self.reference_s.append(self.zygote.reference())

    def scale(self, first):
        """Calibration factor from the reference times taken since index first."""
        return calibrate.NOMINAL_S / statistics.median(self.reference_s[first:])

    def run(self, inv, traced=False):
        stdout_path = os.path.join(self.work, "stdout")
        stderr_path = os.path.join(self.work, "stderr")
        spans_path = os.path.join(self.work, "spans.json") if traced else None
        rep = self.zygote.invoke(inv.argv, stdout_path, stderr_path, spans_path)
        for _ in range(max(1, round(rep["seconds"] / REFERENCE_EVERY_S))):
            self.reference()
        spans = tracer.load(spans_path) if spans_path and os.path.exists(spans_path) else None
        res = Result(rep["code"], _read_bytes(stdout_path) or b"", _read_bytes(stderr_path) or b"",
                     _read_bytes(inv.out), rep["seconds"], rep["maxrss_kb"], spans)
        for path in (stdout_path, stderr_path, spans_path):
            if path and os.path.exists(path):
                os.unlink(path)
        return res

    def verify(self, inv, res):
        """Oracle check; an output byte-identical to one already accepted passes."""
        self.attempted += 1
        digest = res.digest()
        known = self.verified.get(inv.label)
        if known is not None:
            problems = [] if digest == known else ["output differs from the first pass"]
        else:
            problems = []
            if res.code != inv.exit_code:
                problems.append(f"exit code {res.code}, want {inv.exit_code}")
            if inv.out is not None and (res.stdout or res.out is None):
                problems.append("--out run printed to stdout or wrote no file")
            if not problems:
                try:
                    problems = inv.check(res.stdout, res.out)
                except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                    problems = [f"malformed output: {type(exc).__name__}: {exc}"]
            if not problems:
                self.verified[inv.label] = digest
        if problems:
            self.failed += 1
            self.problems.append((inv.label, problems, res.stderr[-2000:]))
        return not problems


class Pass:
    """One pass's results.  wall sums the invocations' fork-to-reap times;
    elapsed also counts the harness, reference and oracle work around them;
    scale is the calibration factor from the references taken in the pass."""

    def __init__(self, results, elapsed, scale):
        self.results = results
        self.wall = sum(r.latency for r in results)
        self.elapsed = elapsed
        self.scale = scale


def run_pass(runner, invocations, traced=False):
    """One pass: every invocation once, in order, timed; then the oracle."""
    t0 = time.perf_counter()
    first = len(runner.reference_s)
    results = [runner.run(inv, traced) for inv in invocations]
    for inv, res in zip(invocations, results):
        runner.verify(inv, res)
    return Pass(results, time.perf_counter() - t0, runner.scale(first))


def fresh_import_seconds(src):
    """simpeff import time in a fresh interpreter, as a CLI user pays it."""
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.split()[-1])


def setup(workload, seed, runner, src):
    """Import, input generation and set-up builds, SETUP_REPEATS times.

    Returns (median calibrated set-up seconds, input paths).
    """
    times = []
    paths = {}
    for _ in range(SETUP_REPEATS):
        first = len(runner.reference_s)
        runner.reference()
        spent = fresh_import_seconds(src)
        t0 = time.perf_counter()
        paths = inputs.write_inputs(seed, workload.inputs, runner.work)
        spent += time.perf_counter() - t0
        for inv in workload.setup(paths, runner.work):
            res = runner.run(inv)
            runner.verify(inv, res)
            spent += res.latency
        times.append(spent * runner.scale(first))
    return statistics.median(times), paths


def tail(latencies):
    """(percentile, value, samples beyond it), by nearest rank."""
    xs = sorted(latencies)
    n = len(xs)
    pct = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= TAIL_MIN_BEYOND),
               TAIL_PERCENTILES[-1])
    rank = math.ceil(pct * n / 100)
    return pct, xs[rank - 1], n - rank


def end_to_end(passes, setup_s):
    """End-to-end metrics from calibrated times.

    Each invocation runs once per pass, so the median invocation latency is
    taken as the median over invocations of each one's median across passes;
    pooling the samples instead would put the median on the order statistics
    at the edge of two invocations' clusters, the noisiest samples there are.
    """
    lat = [r.latency * p.scale for p in passes for r in p.results]
    per_invocation = [statistics.median(p.results[k].latency * p.scale for p in passes)
                      for k in range(len(passes[0].results))]
    pct, tail_s, beyond = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall * p.scale for p in passes), "s"),
        "invocation_p50_s": (statistics.median(per_invocation), "s"),
        "invocation_tail_s": (tail_s, "s"),
        "peak_rss_mb": (max(r.maxrss_kb for p in passes for r in p.results) / 1024, "MB"),
    }
    note = (f"invocation_tail_s is p{pct:g} of {len(lat)} invocations over {len(passes)} "
            f"passes, {beyond} beyond it")
    return metrics, note


def _unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("repeat_share"):
        return "ratio"
    if name == "cli.bytes_written":
        return "B"
    return "count"


def per_layer(traced, untraced):
    """Median over traced passes of each per-layer metric, plus the overhead;
    times are calibrated like the end-to-end ones."""
    summaries = []
    for p in traced:
        m = tracer.summarize([r.spans or [] for r in p.results])
        m = {name: v * p.scale if _unit(name) == "s" else v for name, v in m.items()}
        m["cli.bytes_written"] = sum(len(r.stdout) + len(r.out or b"") for r in p.results)
        summaries.append(m)
    metrics = {name: (statistics.median(s[name] for s in summaries), _unit(name))
               for name in summaries[0]}
    overhead = (statistics.median(p.wall * p.scale for p in traced)
                - statistics.median(p.wall * p.scale for p in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def write_trace(root, workload, seed, traced):
    """All spans of the traced passes, one record per span."""
    os.makedirs(os.path.join(root, TRACE_DIR), exist_ok=True)
    path = os.path.join(root, TRACE_DIR, f"{workload}-seed{seed}.json")
    records = []
    for k, p in enumerate(traced):
        for i, r in enumerate(p.results):
            for name, start, end, parent, key, count in r.spans or []:
                records.append({"pass": k, "invocation": i, "name": name, "start": start,
                                "end": end, "parent": parent, "key": key, "count": count})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    return path


def measure(args, root, src, runner):
    workload = WORKLOADS[args.workload]
    setup_s, paths = setup(workload, args.seed, runner, src)
    invocations = workload.invocations(paths, runner.work, args.seed)
    untraced, traced = [], []
    t0 = time.perf_counter()
    while True:
        trace_now = bool(args.trace) and len(traced) < len(untraced)
        done = traced if trace_now else untraced
        if len(untraced) >= (1 if args.trace else MIN_PASSES) and (traced or not args.trace):
            # start a pass only if it should end within --seconds
            expected = statistics.mean(p.elapsed for p in done)
            if time.perf_counter() - t0 + expected > args.seconds:
                break
        done.append(run_pass(runner, invocations, trace_now))

    for label, problems, stderr in runner.problems:
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
        if stderr:
            print(stderr.decode(errors="replace"), file=sys.stderr)
    if args.trace:
        metrics = per_layer(traced, untraced)
        note = f"trace written to {write_trace(root, args.workload, args.seed, traced)}"
    else:
        metrics, note = end_to_end(untraced, setup_s)
    print(f"calibration: {len(runner.reference_s)} reference samples, median "
          f"{statistics.median(runner.reference_s):.4f} s (nominal {calibrate.NOMINAL_S} s); "
          "pass scales " + " ".join(f"{p.scale:.4f}" for p in untraced))
    for k, inv in enumerate(invocations):
        lat = [p.results[k].latency for p in untraced]
        print(f"{inv.label}: raw median {statistics.median(lat):.4f} s, min {min(lat):.4f} s "
              f"over {len(lat)} untraced passes")
    print("raw pass wall times: " + " ".join(f"{p.wall:.4f}" for p in untraced))
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} "
          f"traced passes; {note}; failed {runner.failed} of {runner.attempted} "
          f"(failed_share {runner.failed / runner.attempted:.4f})")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "simpeff", "cli.py")):
        print("error: run from the root of a simpeff checkout; src/simpeff/cli.py not found",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    work = os.path.join(root, WORK_DIR, str(os.getpid()))
    os.makedirs(work)
    try:
        with Runner(src, work) as runner:
            loaded = runner.zygote.simpeff_file
            if runner.zygote.error or not os.path.abspath(loaded).startswith(
                    os.path.join(src, "")):
                print(f"error: {runner.zygote.error or f'simpeff loaded from {loaded}'}",
                      file=sys.stderr)
                return 2
            result = measure(args, root, src, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
