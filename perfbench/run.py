#!/usr/bin/env python3
"""otlck benchmark: one workload per fresh interpreter, outputs checked.

    python3 perfbench/run.py --workload audit|enumerate|decide --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.

--trace 0 runs seeded items back to back until S seconds of program time
have passed and the current cycle is complete, checks every output against
the independent oracle (outside the timed region) and prints the end-to-end
metrics, with times scaled to a reference machine speed (see speed_probe).
--trace 1 replays a fixed list of items, first untraced in a fresh
interpreter and then with every public otlck function wrapped, and prints
the per-module split.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.  Any seed works; keep some unused while tuning
so that a claimed gain can be re-checked on held-out inputs.
"""

import os

# one thread per process, set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3  # fresh interpreters timed for setup_s, this one included
# The host's speed drifts by up to 1.8x within a minute, and the program's
# item times follow it.  Every time that feeds an end-to-end metric is
# therefore scaled to a reference speed: the one at which speed_probe()
# takes REFERENCE_PROBE_S.  The report prints the raw figures beside them.
PROBE_LOOPS = 15_000
REFERENCE_PROBE_S = 0.001
# The speed also changes within one long item, so an end-to-end run probes
# it every SAMPLE_INTERVAL_S during each call as well (see SpeedSampler).
SAMPLE_INTERVAL_S = 0.2
CHILD_TIMEOUT_S = 170
TAIL_LADDER = (99, 95, 90, 75, 50)

END_TO_END = [  # the metrics of the result line
    ("goodput_items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
]
# Printed in the report only: fail_rate is 0 when nothing fails, and the
# peak RSS often repeats to the kilobyte, so neither can carry a relative
# bound across runs.
REPORTED = [
    ("fail_rate", "ratio"),
    ("peak_rss_mb", "MB"),
]


class BenchError(RuntimeError):
    pass


def load(name, seed):
    """Import otlck from this checkout and build the inputs up to the first
    item (the prefix, or the part of the first cycle drawn before it).
    Returns (set-up seconds at the reference speed, otlck, workload,
    items); later inputs are built between timed calls."""
    if not (SRC / "otlck" / "__init__.py").is_file():
        raise BenchError(f"no otlck sources under {SRC}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    probe = speed_probe()
    t0 = time.perf_counter()
    import otlck
    import otlck.cli  # noqa: F401  (decide calls it; the tracer wraps what it binds)

    setup = time.perf_counter() - t0
    if Path(otlck.__file__).resolve().parent != SRC / "otlck":
        raise BenchError(f"imported otlck from {otlck.__file__}, not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    items = workload.stream(seed)
    first = next(items)
    setup += time.perf_counter() - t0
    setup *= REFERENCE_PROBE_S * 2 / (probe + speed_probe())
    return setup, otlck, workload, itertools.chain([first], items)


def speed_probe():
    """Seconds a fixed pure-Python loop takes right now, best of three."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedSampler:
    """Runs speed_probe() from a SIGALRM handler every SAMPLE_INTERVAL_S
    while a call is in progress.  An item of several seconds then gets its
    own speed measured throughout, not only at its ends.  The handler's own
    time is summed so that it can be taken out of the item's time."""

    def __init__(self):
        self.active = False
        self.samples = []
        self.spent = 0.0
        # left installed: a signal still pending after stop() is ignored
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if not self.active:
            return
        t0 = time.perf_counter()
        self.samples.append(speed_probe())
        self.spent += time.perf_counter() - t0

    def start(self):
        self.samples, self.spent, self.active = [], 0.0, True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        """Returns (probe samples taken during the call, seconds they took)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.active = False
        return self.samples, self.spent


def execute(workload, otlck, items, seconds=None, check=True, sample=False):
    """Call the program on items; when `seconds` is given, until that much
    program time has passed and the current cycle is complete.  Only the
    program call is timed; the speed probes, canonical output, digest and
    checks run between calls.  Each result's ref_dt is its time scaled to
    the reference speed by the mean of the probes taken just before and
    just after it and, with `sample`, of those SpeedSampler took during it
    (their time is not counted as program time).
    Returns (results, program seconds, reference seconds, digest)."""
    results = []
    busy = 0.0
    digest = hashlib.sha256()
    probes = []
    sampler = SpeedSampler() if sample else None
    for item in items:
        # stop at a cycle boundary, so every run has the same mix of strata
        if (seconds is not None and busy >= seconds and results
                and item.cycle != results[-1]["item"].cycle):
            break
        probes.append(speed_probe())
        if sampler:
            sampler.start()
        t0 = time.perf_counter()
        try:
            output, error = workload.run(item, otlck), None
        except Exception as exc:  # a failed item is recorded, and the run goes on
            output, error = None, exc
        dt = time.perf_counter() - t0
        ticks = []
        if sampler:
            ticks, spent = sampler.stop()
            dt -= spent
        busy += dt
        if error is None:
            text = workload.canonical(output)
            problems = []
            if check:
                try:
                    problems = workload.check(item, output)
                except Exception as exc:  # an unverifiable output is not a success
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            text = f"{type(error).__name__}: {error}"
            problems = None
        digest.update(text.encode() + b"\0")
        results.append({"item": item, "dt": dt, "error": error, "problems": problems,
                        "ticks": ticks})
    probes.append(speed_probe())
    for r, before, after in zip(results, probes, probes[1:]):
        r["ref_dt"] = r["dt"] * REFERENCE_PROBE_S / statistics.fmean([before, *r["ticks"], after])
    return results, busy, sum(r["ref_dt"] for r in results), digest.hexdigest()


def replay_items(workload, items):
    """The fixed list a traced run replays: the prefix and the first
    trace_cycles cycles of the stream."""
    return list(itertools.takewhile(lambda item: item.cycle <= workload.trace_cycles, items))


def percentile(sorted_vals, q):
    return sorted_vals[max(0, math.ceil(q / 100 * len(sorted_vals)) - 1)]


def tail(latencies, wanted_q):
    """(q, value): wanted_q, or the highest lower percentile of TAIL_LADDER,
    with at least ten successful items beyond it."""
    n = len(latencies)
    for q in [wanted_q] + [q for q in TAIL_LADDER if q < wanted_q]:
        if n - math.ceil(q / 100 * n) >= 10:
            return q, percentile(latencies, q)
    return 50, percentile(latencies, 50)


def child(mode, args):
    """Run this script in a fresh interpreter and return its JSON line."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe", mode, "--workload",
           args.workload, "--seed", str(args.seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{mode} probe timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def context(args, attempted):
    import mpmath
    import numpy
    import sympy
    from importlib.metadata import version

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "otlck").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "items": attempted, "git_sha": sha,
        "src_sha256": src.hexdigest()[:16], "nproc": os.cpu_count(),
        "python": platform.python_version(), "sympy": sympy.__version__,
        "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__, "click": version("click"),
    }


def summarize(results):
    ok = [r for r in results if r["error"] is None and not r["problems"]]
    raised = [r for r in results if r["error"] is not None]
    wrong = [r for r in results if r["problems"]]
    return ok, raised, wrong


def report_strata(results):
    by = {}
    for r in results:
        by.setdefault(r["item"].stratum, []).append(r["ref_dt"])
    print("program time by stratum, at reference speed:")
    for stratum, dts in sorted(by.items()):
        print(f"  {stratum:<18} {len(dts):4d} items {sum(dts):9.3f} s  "
              f"median {statistics.median(dts) * 1000:9.1f} ms  max {max(dts) * 1000:9.1f} ms")


def report_failures(raised, wrong):
    groups = collections.Counter((r["item"].stratum, type(r["error"]).__name__) for r in raised)
    groups.update((r["item"].stratum, "wrong output") for r in wrong)
    if groups:
        print("failures by stratum and exception:")
        for (stratum, kind), n in sorted(groups.items()):
            print(f"  {stratum:<18} {kind:<20} x{n}")
        print("failing inputs:")
        for r in raised:
            print(f"  {r['item'].label}: {type(r['error']).__name__}: "
                  f"{str(r['error'])[:160]}")
        for r in wrong:
            print(f"  {r['item'].label}: WRONG: {'; '.join(r['problems'])[:300]}")


def run_end_to_end(args):
    setups = [child("setup", args)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    setup_here, otlck, workload, items = load(args.workload, args.seed)
    setups.append(setup_here)
    results, busy, ref_busy, _ = execute(workload, otlck, items, seconds=args.seconds,
                                          sample=True)
    ok, raised, wrong = summarize(results)
    if not ok:
        raise BenchError("no item succeeded; nothing to time")
    lat = sorted(r["ref_dt"] * 1000 for r in ok)
    raw = sorted(r["dt"] * 1000 for r in ok)
    q, tail_ms = tail(lat, workload.tail_q)
    attempted = len(results)
    metrics = {
        "goodput_items_per_s": len(ok) / ref_busy,
        "latency_p50_ms": percentile(lat, 50),
        "latency_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
        "fail_rate": (attempted - len(ok)) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    speed = busy / ref_busy
    print(f"otlck benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s of program time, untraced")
    print("context " + json.dumps(context(args, attempted), sort_keys=True))
    print(f"times are scaled to the reference speed; the host ran {speed:.3f}x slower "
          f"than it ({busy:.3f} s measured = {ref_busy:.3f} s at reference speed)")
    notes = {
        "goodput_items_per_s": f"{len(ok)} verified successes; raw {len(ok) / busy:.4f}",
        "latency_p50_ms": f"over {len(ok)} successful items; raw {percentile(raw, 50):.4f}",
        "latency_tail_ms": f"p{q}: {len(lat) - math.ceil(q / 100 * len(lat))} of {len(lat)} "
                           f"successful items lie beyond it; raw {percentile(raw, q):.4f}",
        "setup_s": "median of " + ", ".join(f"{v:.3f}" for v in setups),
        "fail_rate": f"{attempted - len(ok)} failed or wrong of {attempted} attempted",
        "peak_rss_mb": "this interpreter, checks included",
    }
    for name, unit in END_TO_END + REPORTED:
        print(f"  {name:<22} {metrics[name]:>12.4f} {unit:<6} {notes[name]}")
    print(f"output check: {len(ok)} verified, {len(wrong)} wrong, {len(raised)} raised "
          f"({attempted} attempted)")
    report_strata(results)
    report_failures(raised, wrong)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": attempted - len(ok),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END},
    }


def run_traced(args):
    import tracer

    reference = child("untraced", args)
    _, otlck, workload, items = load(args.workload, args.seed)
    items = replay_items(workload, items)
    tr = tracer.Tracer()
    tr.install(otlck)
    try:
        results, wall, ref_wall, digest = execute(workload, otlck, items)
    finally:
        tr.uninstall()
    ok, raised, wrong = summarize(results)
    identical = digest == reference["digest"]
    layer, modules = tr.metrics(wall, ref_wall - reference["ref_wall_s"])
    print(f"otlck benchmark: workload {args.workload}, seed {args.seed}, traced replay "
          f"of {len(items)} items")
    print("context " + json.dumps(context(args, len(results)), sort_keys=True))
    print(f"per-module self time, s (sum with residual = traced wall {wall:.4f} s):")
    for m in tracer.MODULES:
        print(f"  {m:<12} {modules.get(m, 0.0):10.4f}")
    print(f"  {'residual':<12} {layer['trace.residual_s']:10.4f}  (benchmark code in the timed "
          "region, outside every wrapped call)")
    print(f"trace overhead at reference speed: traced {ref_wall:.4f} s - untraced "
          f"{reference['ref_wall_s']:.4f} s = {layer['trace.overhead_s']:.4f} s "
          f"(measured {wall:.4f} s and {reference['wall_s']:.4f} s)")
    print(f"program output {'byte-identical to' if identical else 'DIFFERS from'} the "
          f"untraced run (sha256 {digest[:16]})")
    print("top functions by self time: calls, total s, self s")
    for key, st in sorted(tr.stats.items(), key=lambda kv: -kv[1].self)[:12]:
        print(f"  {key:<44} {st.calls:8d} {st.total:10.4f} {st.self:10.4f}")
    print("per-layer metrics:")
    for name, unit in tracer.PER_LAYER:
        print(f"  {name:<44} {layer.get(name, 0):>14.6g} {unit}")
    print(f"output check: {len(ok)} verified, {len(wrong)} wrong, {len(raised)} raised")
    report_failures(raised, wrong)
    return {
        "correct": identical and not wrong,
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "metrics": {n: {"value": layer.get(n, 0), "unit": u} for n, u in tracer.PER_LAYER},
    }


def run_probe(args):
    setup_s, otlck, workload, items = load(args.workload, args.seed)
    if args.probe == "setup":
        return {"setup_s": setup_s}
    results, wall, ref_wall, digest = execute(workload, otlck, replay_items(workload, items),
                                              check=False)
    return {"wall_s": wall, "ref_wall_s": ref_wall, "digest": digest}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("audit", "enumerate", "decide"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("setup", "untraced"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    try:
        if args.probe:
            result = run_probe(args)
        elif args.trace:
            result = run_traced(args)
        else:
            result = run_end_to_end(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
