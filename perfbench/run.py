#!/usr/bin/env python3
"""imzv benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload product-table --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program under test is the checkout's
src/imzv.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, measured untraced; with --trace 1 they are the per-layer
ones from spans.  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".bench_out"  # traced runs write their spans here

clock = time.perf_counter

SETUP_PROBES = 7          # timed set-ups per run
PROBE_LOOPS = 20_000      # iterations of the host-speed probe
PROBE_EVERY_S = 0.1       # the probe runs this often between operations
# Timings are scaled to a nominal host on which the probe takes this long
# (about its median on the 2-core Xeon VM the benchmark was tuned on).
HOST_LOOP_REF_S = 0.0024
MAX_MEASURE_S = 120.0     # hard stop for the measuring loop

# The end-to-end metrics of each workload under the names a reader of one
# workload uses; printed beside the generic ones and by --workload all.
NAMED = {
    "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
    "table_products_per_s": "1/s",
    "verify_exact_cases_per_s": "1/s", "verify_numeric_cases_per_s": "1/s",
    "cli_requests_per_s": "1/s",
    "cli_product_p50_ms": "ms", "cli_product_p90_ms": "ms",
    "cli_eval_p50_ms": "ms", "cli_eval_p90_ms": "ms", "cli_expand_p50_ms": "ms",
}

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
)


def percentile(samples, q):
    """The q-th percentile by nearest rank, or None unless at least ten
    samples lie above it (so p90 needs 100 samples and p50 needs 20)."""
    xs = sorted(samples)
    rank = max(1, -(-len(xs) * q // 100))
    if len(xs) - rank < 10:
        return None
    return xs[rank - 1]


def host_loop_s(loops=PROBE_LOOPS, repeats=1):
    """Median time of a fixed pure-Python loop, a probe of host speed."""
    def once():
        t0 = clock()
        acc = 0
        for i in range(loops):
            acc = (acc * 31 + i) % 1_000_003
        return clock() - t0
    return statistics.median(once() for _ in range(repeats))


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def import_program():
    """Put the checkout's src first on the path and import imzv from it."""
    src = ROOT / "src"
    if not (src / "imzv" / "__init__.py").is_file():
        raise SystemExit("error: %s/imzv not found; run from a checkout of imzv" % src)
    sys.path.insert(0, str(src))
    import imzv

    if Path(imzv.__file__).resolve().parent != (src / "imzv").resolve():
        raise SystemExit("error: imported imzv from %s, not %s" % (imzv.__file__, src))
    return imzv


def measure_setup(args):
    """Wall time from starting a fresh interpreter to having the workload's
    inputs ready (import plus input generation), as the median over probes
    of (host-scaled, raw) time.  One untimed probe first, so every timed
    probe finds the bytecode cache written."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times, scaled = [], []
    for i in range(SETUP_PROBES + 1):
        scale = HOST_LOOP_REF_S / host_loop_s(repeats=5)
        t0 = clock()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = clock() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise SystemExit("error: set-up probe failed (exit %s)" % rc)
        if i:
            times.append(dt)
            scaled.append(dt * scale)
    return statistics.median(scaled), statistics.median(times)


def run_checked(work, i, totals, pause=lambda done: None):
    unit = work.run_unit(i, pause)
    work.check(unit)
    totals["attempted"] += unit.attempted
    totals["failed"] += unit.failed
    return unit


def measure(work, seconds, totals):
    """Untraced units until `seconds` have passed and every minimum sample
    count is reached, after one untimed warm-up unit.  Only the program
    calls inside a unit are timed; checking its outputs is not.

    The host's speed swings by up to 60 % within minutes, and CPU time
    swings with wall time, so it is the host, not the scheduler.  The probe
    loop is timed every PROBE_EVERY_S between operations and at both ends
    of a unit; each operation's time is scaled by HOST_LOOP_REF_S over the
    mean of the two probes around it.  Returns the scaled units and the
    rates of the raw times."""
    run_checked(work, -1, totals)
    units, probes = [], []
    last = clock()

    def pause(done):
        nonlocal last
        if clock() - last >= PROBE_EVERY_S:
            probes[-1].append((done, host_loop_s()))
            last = clock()

    start = clock()
    while True:
        probes.append([(0, host_loop_s())])
        units.append(run_checked(work, len(units), totals, pause))
        probes[-1].append((len(units[-1].ops), host_loop_s()))
        last = clock()
        kinds = [k for u in units for k, _ in u.ops]
        enough = all(kinds.count(k) >= n for k, n in work.min_samples.items())
        if clock() - start >= seconds and enough:
            break
        if clock() - start > MAX_MEASURE_S:
            break
    raw = rates(units)
    for unit, unit_probes in zip(units, probes):
        scale_to_host(unit, unit_probes)
    return units, raw


def scale_to_host(unit, probes):
    """Scale a unit's times by the (op index, probe time) pairs taken in it."""
    scales = []
    for (i0, a), (i1, b) in zip(probes, probes[1:]):
        scales += [2 * HOST_LOOP_REF_S / (a + b)] * (i1 - i0)
    timed = sum(dt for _, dt in unit.ops)
    mean = sum(dt * k for (_, dt), k in zip(unit.ops, scales)) / timed
    unit.ops = [(kind, dt * k) for (kind, dt), k in zip(unit.ops, scales)]
    unit.wall_s *= mean
    # only verify-suites keeps outputs past its check: per-suite times
    unit.outputs = [(sid, exp, dt * mean, r) for sid, exp, dt, r in unit.outputs]


def rates(units):
    """The rate and the latency percentiles over every operation of the
    run.  Pooling averages over the spells of host speed that are left
    after scaling, where a median over units jumps between them."""
    latencies = [dt for u in units for _, dt in u.ops]
    return {
        "ops_per_s": len(latencies) / sum(u.wall_s for u in units),
        "op_p50_ms": _ms(percentile(latencies, 50)),
        "op_p90_ms": _ms(percentile(latencies, 90)),
    }


def end_to_end(work, units, setup_s):
    m = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    m.update(rates(units))
    per_unit = {
        "ops_per_s": [len(u.ops) / u.wall_s for u in units],
        "op_p50_ms": [_ms(percentile([dt for _, dt in u.ops], 50)) for u in units],
    }
    detail = {"op_samples": sum(len(u.ops) for u in units),
              "per_unit": {k: [None if x is None else round(x, 6) for x in v]
                           for k, v in per_unit.items()}}
    if work.name == "product-table":
        detail["table_products_per_s"] = m["ops_per_s"]
    elif work.name == "verify-suites":
        import workloads

        for label, numeric in (("exact", False), ("numeric", True)):
            picked = [(exp, dt) for u in units for sid, exp, dt, _ in u.outputs
                      if (sid in workloads.NUMERIC_SUITES) == numeric]
            detail["verify_%s_cases_per_s" % label] = (
                sum(e for e, _ in picked) / sum(dt for _, dt in picked))
    else:
        detail["cli_requests_per_s"] = m["ops_per_s"]
        for kind, pcts in (("product", (50, 90)), ("eval", (50, 90)), ("expand", (50,))):
            kl = [dt for u in units for k, dt in u.ops if k == kind]
            detail["cli_%s_samples" % kind] = len(kl)
            for p in pcts:
                detail["cli_%s_p%d_ms" % (kind, p)] = _ms(percentile(kl, p))
    return m, detail


def _ms(seconds):
    return None if seconds is None else seconds * 1000.0


def traced(work, seed, totals):
    """Per-layer metrics of one unit, run untraced and then traced; the
    spans are written to SPANS_DIR."""
    import spans

    run_checked(work, -1, totals)
    plain = run_checked(work, 0, totals)
    tracer = spans.Tracer()
    tracer.install()
    try:
        unit = work.run_unit(0)
    finally:
        tracer.uninstall()
    work.check(unit)
    totals["attempted"] += unit.attempted
    totals["failed"] += unit.failed
    if unit.digest != plain.digest:
        totals["failed"] += 1
        print("error: traced outputs differ from untraced outputs", file=sys.stderr)
    tracer.counts["cli.out_bytes"] = unit.out_bytes
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / ("spans-%s-%d.json" % (work.name, seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "layer", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)
    return (tracer.per_layer_metrics(unit.wall_s, plain.wall_s),
            {"spans": len(tracer.spans), "spans_file": str(path.relative_to(ROOT))})


def run_one(args) -> int:
    import numpy
    import workloads

    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup(args)
    work = workloads.make(args.workload, args.seed)
    totals = {"attempted": 0, "failed": 0}
    loop_before = host_loop_s(200_000, 5)
    if args.trace:
        metrics, detail = traced(work, args.seed, totals)
    else:
        units, raw = measure(work, args.seconds, totals)
        values, detail = end_to_end(work, units, setup_s)
        detail["raw"] = dict(raw, setup_s=setup_raw_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    loop_after = host_loop_s(200_000, 5)

    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        failed_frac=totals["failed"] / max(totals["attempted"], 1),
        host={"loop_before_s": loop_before, "loop_after_s": loop_after,
              "python": sys.version.split()[0], "numpy": numpy.__version__,
              "nproc": os.cpu_count(), "commit": commit()},
    )
    missing = ([k for k, rec in metrics.items() if rec["value"] is None]
               + [k for k, v in detail.items() if v is None])
    correct = totals["failed"] == 0 and totals["attempted"] > 0 and not missing
    if missing:
        print("error: too few samples for %s" % ", ".join(missing), file=sys.stderr)
    for name, rec in metrics.items():
        print("%-30s %14.6g %s" % (name, rec["value"], rec["unit"]))
    for name, unit in NAMED.items():
        if detail.get(name) is not None and name not in metrics:
            print("%-30s %14.6g %s" % (name, detail[name], unit))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": totals["attempted"],
                      "failed": totals["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    import workloads

    ok = True
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            ok = False
        if not lines:
            continue
        result = json.loads(lines[-1])
        detail = json.loads(next(l for l in lines if l.startswith("detail "))[7:])
        rows += [(name, key, rec["value"], rec["unit"]) for key, rec in result["metrics"].items()]
        rows += [(name, key, detail[key], unit) for key, unit in NAMED.items()
                 if detail.get(key) is not None and key not in result["metrics"]]
    for row in rows:
        print("%-14s %-28s %14.6g %s" % row)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("product-table", "verify-suites", "cli-session", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    if args.setup_probe:
        import workloads

        workloads.make(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
