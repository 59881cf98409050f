#!/usr/bin/env python3
"""End-to-end benchmark of the PVR scenario pipeline, with a per-layer ledger.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, both passes

It builds perfbench/pvrbench from the checkout's src/ (CMake, Release, into
.bench_build/), then measures one workload by spawning one fresh process per
measured call, so RSS, CPU, the global metrics registry and the verdict
caches are never shared between calls or workloads:

  * set-up: SETUP_PROCESSES processes each time their first
    scenario::plan_world call; setup_s is the median.
  * --trace 0: untraced scenario::run_scenario calls, back to back, for
    --seconds; each end-to-end metric is the median over the calls.
  * --trace 1: untraced and traced calls alternate for --seconds, then one
    half-length call (RSS growth per round) and one unit-cost probe. The
    per-layer ledger comes from registry deltas, trace spans reduced to self
    time by containment on each lane, and the probe.

Every call is checked: detection 1.0 on attacked workloads, zero false
evidence, audit failures and verify failures, identical report fingerprints
across all calls (traced or not) and identical simulation-domain counts.
The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the exit code is nonzero when a check fails. See README.md in
this directory for what each metric means and which layer should move it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"

WORKLOADS = {
    "honest_steady": {"attacked": False},
    "equivocation_storm": {"attacked": True},
    "batch_burst": {"attacked": True},
}
# Rounds per measured call. At this length the evidence an attacked run
# keeps (about 17 KB per round) is about two thirds of peak RSS, so RSS growth
# with trace length stays visible instead of hiding under the process's
# fixed footprint; and several calls fit in one run, whose median rides
# out the call-to-call noise of a shared host.
ROUNDS = 1200
SETUP_PROCESSES = 9
CALL_TIMEOUT_S = 170

# Report fields a correct run must have; --expect NAME=VALUE overrides one
# (to show the check failing against a broken expectation).
EXPECT = {
    "detection_rate": 1.0,
    "false_evidence": 0,
    "audit_failures": 0,
    "verify_failures": 0,
}
# Simulation-domain counts: pure functions of the workload and seed, so they
# must repeat exactly in every call of one run.
EXACT_COUNTS = [
    "crypto.rsa_signs",
    "crypto.bytes_hashed",
    "sim.events",
    "sim.messages",
    "node.windows_closed",
    "engine.tasks",
]
# Schedule-domain counts: reported with their range, never required equal.
SCHED_COUNTS = ["crypto.rsa_verifies", "crypto.world_cache_hits"]

END_TO_END = [  # name, unit
    ("rounds_per_s", "1/s"),
    ("cpu_ms_per_round", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wire_kib_per_round", "KiB"),
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(obs_on):
    if not (ROOT / "src" / "scenario" / "runner.h").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    build_dir = BUILD_ROOT / ("perfbench" if obs_on else "perfbench-obs-off")
    configure = [
        "cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
        "-DCMAKE_BUILD_TYPE=Release", f"-DPVR_OBS={'ON' if obs_on else 'OFF'}",
    ]
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    for command in (configure, ["cmake", "--build", str(build_dir), "-j", jobs]):
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail("build failed")
    return build_dir / "pvrbench"


def call(binary, *args):
    done = subprocess.run(
        [str(binary), *args], capture_output=True, text=True, timeout=CALL_TIMEOUT_S
    )
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        fail(f"{' '.join(args)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def self_times(trace_path):
    """Per-span-name inclusive and self time (µs) on the wall-clock track.

    Spans on one lane (thread) nest, so each span's self time is its
    duration minus the durations of the spans directly inside it.
    """
    with open(trace_path) as handle:
        events = json.load(handle)["traceEvents"]
    lanes = {}
    for event in events:
        if event.get("ph") == "X" and event.get("pid") == 1:
            lanes.setdefault(event["tid"], []).append(event)
    inclusive, own = {}, {}
    for spans in lanes.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, name, self]
        def close(entry):
            own[entry[1]] = own.get(entry[1], 0) + entry[2]
        for span in spans:
            start, dur, name = span["ts"], span["dur"], span["name"]
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                stack[-1][2] -= dur
            inclusive[name] = inclusive.get(name, 0) + dur
            stack.append([start + dur, name, dur])
        while stack:
            close(stack.pop())
    return inclusive, own


def counter(sample, name):
    return sample["counters"].get(name, 0)


def hist_sum(sample, name):
    return sample["hist_sums"].get(name, 0)


def check(samples, workload, expect):
    """Returns (failures per sample, list of problems)."""
    problems = []
    failures = []
    attacked = WORKLOADS[workload]["attacked"]
    for sample in samples:
        undetected = sample["attacked_rounds"] - sample["detected_rounds"]
        failures.append(
            undetected + sample["verify_failures"]
            + sample["audit_failures"] + sample["false_evidence"]
        )
        for field, want in expect.items():
            if sample[field] != want:
                problems.append(f"{field} = {sample[field]}, expected {want}")
        if attacked != (sample["attacked_rounds"] > 0):
            problems.append(f"attacked_rounds = {sample['attacked_rounds']}")
    if len({s["fingerprint"] for s in samples}) != 1:
        problems.append("report fingerprint differs between calls")
    if samples[0]["obs"]:
        for name in EXACT_COUNTS:
            values = {counter(s, name) for s in samples}
            if len(values) != 1:
                problems.append(f"{name} differs between calls: {sorted(values)}")
    return failures, sorted(set(problems))


def summary(values):
    """Median, highest percentile with >= 10 samples beyond it, and the
    sorted values."""
    ordered = sorted(values)
    n = len(ordered)
    high = None
    for pct in (99, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            high = (pct, ordered[min(n - 1, int(n * pct / 100))])
            break
    return statistics.median(ordered), high, ordered


def run_samples(binary, workload, seed, rounds, workers, seconds, traced, trace_dir):
    """Calls run_scenario until `seconds` would be exceeded (at least once).

    With `traced`, untraced and traced calls alternate; returns both lists.
    """
    plain, with_trace = [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        began = time.monotonic()
        args = [f"--workload={workload}", f"--seed={seed}", f"--rounds={rounds}",
                f"--workers={workers}"]
        if traced and len(with_trace) < len(plain):
            path = trace_dir / f"{workload}-{seed}-{len(with_trace)}.json"
            sample = call(binary, "run", *args, f"--trace-out={path}")
            sample["spans"] = self_times(path)
            path.unlink()
            with_trace.append(sample)
        else:
            plain.append(call(binary, "run", *args))
        longest = max(longest, time.monotonic() - began)
        complete = not traced or len(with_trace) == len(plain)
        if complete and time.monotonic() - start + longest * (2 if traced else 1) > seconds:
            return plain, with_trace


def end_to_end(samples, setups):
    per_call = {
        "rounds_per_s": [s["rounds_started"] / s["wall_s"] for s in samples],
        "cpu_ms_per_round": [1e3 * s["cpu_s"] / s["rounds_started"] for s in samples],
        "setup_s": [s["setup_s"] for s in setups],
        "peak_rss_mb": [s["maxrss_kb"] / 1024 for s in samples],
        "wire_kib_per_round": [
            s["bytes_total"] / 1024 / s["rounds_started"] for s in samples
        ],
    }
    return {name: summary(per_call[name]) for name, _ in END_TO_END}


def per_layer(plain, traced, half, setups, probe, workers):
    """The ledger: one value per metric, from the traced calls (medians)."""
    def med(fn, samples=traced):
        return statistics.median(fn(s) for s in samples)

    first = traced[0]
    rounds = first["rounds_started"]
    per_round = lambda name: counter(first, name) / rounds  # exact counts
    span_ms = lambda s, name, kind=1: s["spans"][kind].get(name, 0) / 1e3 / s["rounds_started"]
    rate = lambda s: s["rounds_started"] / s["wall_s"]
    signs = per_round("crypto.rsa_signs")
    # Schedule-domain counts vary between calls; take the median of all.
    exps = med(lambda s: counter(s, "crypto.rsa_verifies") / rounds, plain + traced)
    hits = med(lambda s: counter(s, "crypto.world_cache_hits") / rounds, plain + traced)
    metrics = {
        "scenario.plan_ms": (1e3 * med(lambda s: s["setup_s"], setups), "ms"),
        # bench.run_scenario's self time: the call minus scenario.sim_run and
        # the tail flush/harvest spans, i.e. world build plus scoring.
        "scenario.outside_sim_ms": (med(lambda s: span_ms(s, "bench.run_scenario")), "ms/round"),
        "scenario.evidence_per_round": (first["evidence_total"] / rounds, "1/round"),
        "scenario.rss_kib_per_round": (
            (med(lambda s: s["maxrss_kb"], plain) - half["maxrss_kb"])
            / (rounds - half["rounds_started"]), "KiB/round"),
        "core.windows_per_round": (first["windows_fired"] / rounds, "1/round"),
        "core.peak_open_rounds": (first["peak_open_rounds"], "count"),
        "core.peak_root_digests": (first["peak_root_digests"], "count"),
        "crypto.signs_per_round": (signs, "1/round"),
        "crypto.sign_us": (probe["sign_us"], "us"),
        "crypto.sign_model_ms": (signs * probe["sign_us"] / 1e3, "ms/round"),
        "crypto.verify_exps_per_round": (exps, "1/round"),
        "crypto.verify_cache_hit_ratio": (hits / (hits + exps), "ratio"),
        "crypto.verify_us": (probe["verify_us"], "us"),
        "crypto.verify_busy_ms": (
            med(lambda s: hist_sum(s, "crypto.rsa_verify_us") / 1e3 / rounds), "ms/round"),
        "crypto.hashed_kib_per_round": (per_round("crypto.bytes_hashed") / 1024, "KiB/round"),
        "crypto.sha256_ns_per_byte_small": (probe["sha256_ns_per_byte_small"], "ns/B"),
        "crypto.sha256_ns_per_byte_bulk": (probe["sha256_ns_per_byte_bulk"], "ns/B"),
        "crypto.keygen_ms_per_key": (probe["keygen_ms_per_key"], "ms"),
        "net.sim_run_self_ms": (med(lambda s: span_ms(s, "scenario.sim_run")), "ms/round"),
        "net.events_per_round": (per_round("sim.events"), "1/round"),
        "net.messages_per_round": (per_round("sim.messages"), "1/round"),
        "net.gossip_messages_per_round": (first["gossip_messages"] / rounds, "1/round"),
        "net.codec_us": (probe["message_codec_us"], "us"),
        "net.evidence_codec_us": (probe["evidence_codec_us"], "us"),
        "net.snapshot_codec_us": (probe["snapshot_codec_us"], "us"),
        "engine.tasks_per_round": (per_round("engine.tasks"), "1/round"),
        "engine.task_busy_ms": (med(lambda s: hist_sum(s, "engine.task_us") / 1e3 / rounds), "ms/round"),
        "engine.worker_util": (
            med(lambda s: hist_sum(s, "engine.task_us") / 1e6 / (workers * s["wall_s"])), "ratio"),
        "engine.collect_wait_ms": (med(lambda s: span_ms(s, "engine.collect", 0)), "ms/round"),
        "engine.flush_ms": (med(lambda s: span_ms(s, "scenario.drain_flush", 0)), "ms/round"),
        "engine.overlap_ratio": (med(lambda s: s["pipeline_overlap_ratio"]), "ratio"),
        # Calls alternate, so each traced call is paired with the untraced
        # call just before it, which saw the same host conditions.
        "obs.trace_overhead": (
            1 - statistics.median(rate(t) / rate(p) for p, t in zip(plain, traced)), "ratio"),
        "obs.trace_dropped": (max(s["trace_dropped"] for s in traced), "count"),
    }
    return metrics


def fmt(value):
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def measure(binary, workload, seed, seconds, trace, expect, trace_dir):
    hw_threads = len(os.sched_getaffinity(0))
    workers = max(1, hw_threads - 1)
    setups = [
        call(binary, "setup", f"--workload={workload}", f"--seed={seed}",
             f"--rounds={ROUNDS}")
        for _ in range(SETUP_PROCESSES)
    ]
    plain, traced = run_samples(
        binary, workload, seed, ROUNDS, workers, seconds, trace, trace_dir
    )
    samples = plain + traced
    failures, problems = check(samples, workload, expect)
    rounds_started = [s["rounds_started"] for s in samples]
    if any(r != ROUNDS for r in rounds_started):
        problems.append(f"rounds_started {sorted(set(rounds_started))} != {ROUNDS}")

    print(f"[{workload}] seed {seed}, {ROUNDS} rounds/call, workers {workers}, "
          f"hw_threads {hw_threads}, obs {'on' if samples[0]['obs'] else 'OFF'}")
    attempted, failed = sum(rounds_started), sum(failures)
    if not trace:
        result = {}
        stats = end_to_end(samples, setups)
        for name, unit in END_TO_END:
            median, high, ordered = stats[name]
            extra = f"p{high[0]} {high[1]:.4g}" if high else "no higher percentile has 10 samples beyond it"
            print(f"  {name:<20} {median:>10.4g} {unit:<4} median of n={len(ordered)}, "
                  f"range {ordered[0]:.4g}-{ordered[-1]:.4g} ({extra})")
            result[name] = {"value": median, "unit": unit}
        print(f"  {'failed_round_ratio':<20} {failed / attempted:>10.4g} of "
              f"{attempted} rounds (the result's failed/attempted)")
        print_ledger(samples)
    else:
        half = call(binary, "run", f"--workload={workload}", f"--seed={seed}",
                    f"--rounds={ROUNDS // 2}", f"--workers={workers}")
        mean_message = samples[0]["bytes_total"] / max(1, counter(samples[0], "sim.messages"))
        probe = call(binary, "probe", f"--seed={seed}",
                     f"--payload-bytes={int(mean_message) or 256}")
        ledger = per_layer(plain, traced, half, setups, probe, workers)
        result = {}
        for name, (value, unit) in ledger.items():
            print(f"  {name:<34} {fmt(value):>10} {unit}")
            result[name] = {"value": value, "unit": unit}
        if ledger["obs.trace_dropped"][0]:
            print("  WARNING: the trace dropped events; span self times are incomplete")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": result}


def print_ledger(samples):
    if not samples[0]["obs"]:
        print("  work ledger: unavailable (built with PVR_OBS=OFF)")
        return
    rounds = samples[0]["rounds_started"]
    exact = ", ".join(f"{n} {counter(samples[0], n) / rounds:.4g}" for n in EXACT_COUNTS)
    print(f"  work ledger per round, exact over {len(samples)} calls: {exact}")
    for name in SCHED_COUNTS:
        values = [counter(s, name) / rounds for s in samples]
        print(f"  {name} per round: median {statistics.median(values):.4g} "
              f"(range {min(values):.4g}-{max(values):.4g})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, both passes)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--obs", choices=("on", "off"), default="on",
                        help="off builds with -DPVR_OBS=OFF (counts unavailable)")
    parser.add_argument("--expect", action="append", default=[], metavar="NAME=VALUE",
                        help="override one expected report field")
    args = parser.parse_args()

    expect = dict(EXPECT)
    for item in args.expect:
        name, _, value = item.partition("=")
        if name not in expect:
            fail(f"--expect: unknown field {name}")
        expect[name] = type(expect[name])(value)
    if args.obs == "off" and args.trace == 1:
        fail("--trace 1 needs the obs hooks; use --obs on")

    binary = build(args.obs == "on")
    trace_dir = BUILD_ROOT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)

    if args.workload:
        passes = [(args.workload, args.trace or 0)]
    else:
        traces = [0] if args.obs == "off" else [0, 1]
        passes = [(w, t) for w in WORKLOADS for t in traces]
    results = [
        measure(binary, w, args.seed, args.seconds, t, expect, trace_dir)
        for w, t in passes
    ]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{name}": v for (w, _), r in zip(passes, results)
                        for name, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
