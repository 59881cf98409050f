#!/usr/bin/env python3
"""Bench regression gate: diff a fresh bench_results.jsonl against the
committed baseline trajectory (BENCH_pr*.json) and fail CI when the sweep
regressed.

Rules (exit 1 on any violation):
  1. every per-bench metadata line in the fresh run ({"bench": ..., "ok": ...})
     must carry ok == true — a crashing bench is a regression by itself;
  2. the fresh engine_throughput row must report deterministic == true
     (Evidence diverged across worker counts / submission keys — a
     correctness failure, not a perf number);
  3. every throughput field listed in THROUGHPUT_KEYS that appears in BOTH
     the baseline and the fresh engine_throughput rows must not drop more
     than --max-regression (default 25%);
  4. every adversarial scenario row ({"bench": "scenarios", ...}) must
     report detection_rate == 1.0, false_evidence == 0, and
     verify_failures == 0 (an attack the shipped evidence checks miss, an
     honest AS framed, or a verification task that crashed and was
     swallowed, is a correctness failure), and every
     {"bench": "scenarios_gate"} row must carry deterministic == true,
     online_parity == true (the online pipeline reproduced the offline
     fingerprint byte-for-byte), and gates_ok == true;
  5. when the fresh run contains a scenarios sweep at all, it must cover at
     least the three named scenarios — a silently shrinking matrix would
     pass rule 4 vacuously;
  6. the fresh run must carry the online long-trace row
     ({"bench": "scenarios_online"}) whenever it has a scenarios sweep, and
     that row must report verify_failures == 0, detection_rate == 1.0,
     false_evidence == 0, and peak_open_rounds <= peak_bound — the online
     pipeline's bounded-memory claim (DESIGN.md §10) gated as a number;
  7. every scenarios_online row must carry a p99_settle_us field (the
     settle-latency quantile ROADMAP item 4 gates on — a row without it
     means the obs wiring silently fell out of the runner), and when the
     baseline's scenarios_online row also carries one, the fresh p99 must
     not exceed baseline * (1 + --max-regression). Settle latency is SIM
     time, so unlike wall-clock throughput it is host-independent; the
     quantile is a log2-bucket upper edge, so a >25% jump means the p99
     genuinely crossed into a later drain cycle;
  8. every scenarios_online row must carry the pipelining-evidence fields
     wall_ms and pipeline_overlap_ratio (DESIGN.md §12 — a row without
     them means the double-buffered drain fell out of the runner), the
     overlap ratio must be > 0 (some verification fold genuinely ran while
     the simulator advanced — true on any host, including 1-core
     containers), and when the row reports hw_threads > 1 the measured
     wall_ms must undercut sim_ms + verify_ms (the true-parallelism
     inequality: pipelining hid verification time behind the simulation);
  9. whenever the fresh run has an engine_throughput row it must also carry
     the crypto_profile row with BOTH a verifies_per_sec and a
     context_speedup field (ROADMAP item 3's profile-first gate — a missing
     row or field means the crypto profile, or the shared-vs-stateless
     comparison that keeps the verify context honest, fell out of the
     bench). The context_speedup ratio (shared VerifyContext throughput /
     stateless rsa_verify throughput, which rebuilds the per-key context on
     every call; best-of-passes so it is noise-robust) must be at least
     --min-context-speedup (default 0.9): it is host-relative, so the gate
     only demands that the shared context not PESSIMIZE verification.
     verifies_per_sec is then gated against the baseline: when the
     baseline's crypto_profile carries neither context_speedup nor its
     predecessor batch_speedup (i.e. predates the Montgomery refactor), the
     fresh value must clear a STEP gate of --min-vps-step x baseline
     (default 2.0 — the refactor's promised speedup, not a mere
     no-regression bound); once the baseline carries either field the
     ordinary (1 - --max-regression) floor applies. The same row must
     also carry signs_per_sec (rsa_sign through the per-key CRT
     precompute, best-of-passes), and whenever the baseline's
     crypto_profile carries signs_per_sec too, the fresh value must not
     drop more than --max-regression below it;
  10. whenever the fresh run has a scenarios sweep it must carry the
     multiprocess deployment row ({"bench": "scenarios_mp"}), and that row
     must report fingerprint_parity == true AND
     multiprocess_obs_parity == true — the distributed run reproduced the
     monolithic report byte-for-byte and its merged metrics shards
     reproduced the single-process SIM-domain metrics fingerprint
     (DESIGN.md §14).

Speedup ratios (speedup_8v1, speedup_8v1_intra) are gated
ONLY when BOTH the fresh and baseline engine_throughput rows report
hw_threads > 1: they depend on the runner's core count, and the 1-core
container that produces some baselines would make any ratio gate
meaningless there. The absolute rounds/sec floors below catch real
throughput regressions on any host.

Usage: check_bench_regression.py FRESH_JSONL BASELINE_JSON [--max-regression 0.25]
"""

import argparse
import json
import sys

THROUGHPUT_KEYS = ("rounds_per_sec_1w", "rounds_per_sec_8w")

# Worker-scaling ratios: only meaningful when the host can actually run
# workers in parallel, so these are gated iff BOTH rows carry hw_threads > 1.
SPEEDUP_KEYS = ("speedup_8v1", "speedup_8v1_intra")


def load_rows(path):
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise SystemExit(f"{path}: unparseable line {line!r}: {error}")
    return rows


def find_bench(rows, name):
    for row in rows:
        if row.get("bench") == name and "ok" not in row:
            return row
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="fresh bench_results.jsonl")
    parser.add_argument("baseline", help="committed BENCH_pr*.json baseline")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="max allowed fractional throughput drop")
    parser.add_argument("--min-context-speedup", type=float, default=0.9,
                        help="floor for crypto_profile.context_speedup "
                             "(shared context vs per-call-rebuild "
                             "verification)")
    parser.add_argument("--min-vps-step", type=float, default=2.0,
                        help="required verifies_per_sec multiple over a "
                             "baseline whose crypto_profile predates "
                             "context_speedup (the Montgomery step gate)")
    args = parser.parse_args()

    fresh = load_rows(args.fresh)
    baseline = load_rows(args.baseline)
    failures = []

    # 1. Every bench that ran must have succeeded.
    seen_metadata = 0
    for row in fresh:
        if "ok" in row:
            seen_metadata += 1
            if row["ok"] is not True:
                failures.append(f"bench {row.get('bench')!r} reported ok:false")
    if seen_metadata == 0:
        failures.append("fresh run carries no per-bench ok/seconds metadata "
                        "lines — did bench/run_all.sh produce this file?")

    # 2 + 3. Engine throughput: determinism and absolute-throughput floors.
    fresh_engine = find_bench(fresh, "engine_throughput")
    baseline_engine = find_bench(baseline, "engine_throughput")
    if fresh_engine is None:
        failures.append("fresh run has no engine_throughput row")
    else:
        if fresh_engine.get("deterministic") is not True:
            failures.append("engine_throughput reported deterministic:false — "
                            "Evidence diverged across workers/submission keys")
        if baseline_engine is not None:
            for key in THROUGHPUT_KEYS:
                if key not in fresh_engine or key not in baseline_engine:
                    continue
                old, new = baseline_engine[key], fresh_engine[key]
                floor = old * (1.0 - args.max_regression)
                verdict = "ok" if new >= floor else "REGRESSION"
                print(f"{key}: baseline {old:.1f} -> fresh {new:.1f} "
                      f"(floor {floor:.1f}) {verdict}")
                if new < floor:
                    failures.append(
                        f"{key} regressed >{args.max_regression:.0%}: "
                        f"{old:.1f} -> {new:.1f}")
            # Speedup ratios: gated only when both hosts could actually
            # scale (hw_threads > 1 in fresh AND baseline rows); a 1-core
            # runner legitimately reports ratios near or below 1.0.
            if (fresh_engine.get("hw_threads", 0) > 1
                    and baseline_engine.get("hw_threads", 0) > 1):
                for key in SPEEDUP_KEYS:
                    if key not in fresh_engine or key not in baseline_engine:
                        continue
                    old, new = baseline_engine[key], fresh_engine[key]
                    floor = old * (1.0 - args.max_regression)
                    verdict = "ok" if new >= floor else "REGRESSION"
                    print(f"{key}: baseline {old:.2f} -> fresh {new:.2f} "
                          f"(floor {floor:.2f}) {verdict}")
                    if new < floor:
                        failures.append(
                            f"{key} regressed >{args.max_regression:.0%}: "
                            f"{old:.2f} -> {new:.2f}")
            else:
                print("speedup ratios: skipped (hw_threads <= 1 on fresh "
                      "or baseline host)")

    # 4 + 5. Adversarial scenarios: detection/false-evidence/determinism
    # gates plus matrix coverage.
    scenario_rows = [row for row in fresh if row.get("bench") == "scenarios"]
    gate_rows = [row for row in fresh if row.get("bench") == "scenarios_gate"]
    for row in scenario_rows:
        label = f"scenario {row.get('scenario')!r}"
        if row.get("detection_rate") != 1.0:
            failures.append(
                f"{label} detection_rate == {row.get('detection_rate')!r} "
                "(attack escaped the shipped evidence checks)")
        if row.get("false_evidence") != 0:
            failures.append(
                f"{label} false_evidence == {row.get('false_evidence')!r} "
                "(an honest AS was framed)")
        if row.get("audit_failures", 0) != 0:
            failures.append(
                f"{label} audit_failures == {row.get('audit_failures')!r}")
        if row.get("verify_failures", 0) != 0:
            failures.append(
                f"{label} verify_failures == {row.get('verify_failures')!r} "
                "(a verification task crashed and its findings were lost)")
    for row in gate_rows:
        label = f"scenario {row.get('scenario')!r}"
        if row.get("deterministic") is not True:
            failures.append(f"{label} diverged across worker counts")
        if row.get("online_parity") is not True:
            failures.append(
                f"{label} online run diverged from the offline fingerprint")
        if row.get("gates_ok") is not True:
            failures.append(f"{label} reported gates_ok:false")
    if scenario_rows or gate_rows:
        covered = {row.get("scenario") for row in scenario_rows}
        for name in ("equivocation_storm", "batch_split_evasion",
                     "drop_replay_chaos"):
            if name not in covered:
                failures.append(f"scenario sweep is missing {name!r}")

    # 6. Online long trace: bounded memory, no swallowed verification
    # failures. Required whenever the scenarios sweep ran at all.
    online_rows = [row for row in fresh
                   if row.get("bench") == "scenarios_online"]
    if (scenario_rows or gate_rows) and not online_rows:
        failures.append("fresh run has a scenarios sweep but no "
                        "scenarios_online long-trace row")
    for row in online_rows:
        label = f"online scenario {row.get('scenario')!r}"
        if row.get("verify_failures", 0) != 0:
            failures.append(
                f"{label} verify_failures == {row.get('verify_failures')!r}")
        if row.get("detection_rate") != 1.0:
            failures.append(
                f"{label} detection_rate == {row.get('detection_rate')!r}")
        if row.get("false_evidence", 0) != 0:
            failures.append(
                f"{label} false_evidence == {row.get('false_evidence')!r}")
        peak = row.get("peak_open_rounds")
        bound = row.get("peak_bound")
        if peak is None or bound is None or peak > bound:
            failures.append(
                f"{label} peak_open_rounds {peak!r} exceeds bound {bound!r} "
                "(online GC no longer bounds memory by open windows)")

    # 7. Settle-latency gate: p99_settle_us required on every fresh
    # scenarios_online row, and regression-bounded against the baseline's
    # row when the baseline already carries the field (pre-obs baselines
    # don't; the presence requirement alone still applies to fresh runs).
    baseline_online = find_bench(baseline, "scenarios_online")
    for row in online_rows:
        label = f"online scenario {row.get('scenario')!r}"
        fresh_p99 = row.get("p99_settle_us")
        if fresh_p99 is None:
            failures.append(
                f"{label} carries no p99_settle_us field — the settle "
                "latency instrumentation fell out of the runner")
            continue
        if baseline_online is None:
            continue
        base_p99 = baseline_online.get("p99_settle_us")
        if base_p99 is None or base_p99 <= 0:
            continue
        ceiling = base_p99 * (1.0 + args.max_regression)
        verdict = "ok" if fresh_p99 <= ceiling else "REGRESSION"
        print(f"p99_settle_us: baseline {base_p99} -> fresh {fresh_p99} "
              f"(ceiling {ceiling:.0f}) {verdict}")
        if fresh_p99 > ceiling:
            failures.append(
                f"{label} p99_settle_us regressed "
                f">{args.max_regression:.0%}: {base_p99} -> {fresh_p99}")

    # 8. Pipelined-drain evidence: wall_ms + pipeline_overlap_ratio must be
    # present on every fresh scenarios_online row, the overlap ratio must be
    # positive (host-independent: the fold window was in flight before the
    # harvest arrived), and on a multi-core host the wall clock must
    # undercut the serial sum sim_ms + verify_ms.
    for row in online_rows:
        label = f"online scenario {row.get('scenario')!r}"
        wall = row.get("wall_ms")
        ratio = row.get("pipeline_overlap_ratio")
        if wall is None or ratio is None:
            failures.append(
                f"{label} is missing wall_ms/pipeline_overlap_ratio — the "
                "pipelined drain instrumentation fell out of the runner")
            continue
        if not ratio > 0:
            failures.append(
                f"{label} pipeline_overlap_ratio == {ratio!r} — no "
                "verification overlapped the simulation (double buffering "
                "is not pipelining)")
        if row.get("hw_threads", 0) > 1:
            sim_ms = row.get("sim_ms", 0)
            verify_ms = row.get("verify_ms", 0)
            serial = sim_ms + verify_ms
            verdict = "ok" if wall < serial else "REGRESSION"
            print(f"pipeline wall_ms: {wall:.1f} vs serial "
                  f"{serial:.1f} (sim {sim_ms:.1f} + verify {verify_ms:.1f}) "
                  f"{verdict}")
            if not wall < serial:
                failures.append(
                    f"{label} wall_ms {wall} >= sim_ms + verify_ms "
                    f"{serial} on a {row.get('hw_threads')}-thread host — "
                    "pipelining hid no verification time")
        else:
            print(f"pipeline wall_ms inequality: skipped "
                  f"(hw_threads == {row.get('hw_threads')!r}); "
                  f"overlap ratio {ratio:.4f} gated instead")

    # 9. Crypto profile: verifies_per_sec AND context_speedup must ride along
    # with every engine_throughput run. context_speedup is gated by an
    # absolute host-relative floor; verifies_per_sec is step-gated against
    # pre-Montgomery baselines and regression-bounded afterwards.
    if fresh_engine is not None:
        fresh_profile = find_bench(fresh, "crypto_profile")
        if fresh_profile is None or "verifies_per_sec" not in fresh_profile:
            failures.append(
                "fresh run has an engine_throughput row but no crypto_profile "
                "row with verifies_per_sec — the crypto profile fell out of "
                "the bench (ROADMAP item 3)")
        else:
            speedup = fresh_profile.get("context_speedup")
            if speedup is None:
                failures.append(
                    "crypto_profile carries no context_speedup field — the "
                    "shared-vs-stateless comparison that keeps the verify "
                    "context honest fell out of the bench")
            else:
                verdict = ("ok" if speedup >= args.min_context_speedup
                           else "REGRESSION")
                print(f"context_speedup: fresh {speedup:.2f} "
                      f"(floor {args.min_context_speedup:.2f}) {verdict}")
                if speedup < args.min_context_speedup:
                    failures.append(
                        f"context_speedup {speedup:.2f} < floor "
                        f"{args.min_context_speedup:.2f} — the shared verify "
                        "context is slower than rebuilding the per-key "
                        "context on every call")
            baseline_profile = find_bench(baseline, "crypto_profile")
            base_vps = (baseline_profile or {}).get("verifies_per_sec")
            if base_vps:
                new_vps = fresh_profile["verifies_per_sec"]
                if not {"context_speedup", "batch_speedup"} & set(
                        baseline_profile or {}):
                    # Pre-Montgomery baseline: this is the refactor's step
                    # gate, not a no-regression bound.
                    floor = base_vps * args.min_vps_step
                    verdict = "ok" if new_vps >= floor else "REGRESSION"
                    print(f"verifies_per_sec: baseline {base_vps:.1f} -> "
                          f"fresh {new_vps:.1f} (step floor {floor:.1f} = "
                          f"{args.min_vps_step:.1f}x) {verdict}")
                    if new_vps < floor:
                        failures.append(
                            f"verifies_per_sec {new_vps:.1f} did not clear "
                            f"the {args.min_vps_step:.1f}x step gate over "
                            f"the pre-Montgomery baseline {base_vps:.1f}")
                else:
                    floor = base_vps * (1.0 - args.max_regression)
                    verdict = "ok" if new_vps >= floor else "REGRESSION"
                    print(f"verifies_per_sec: baseline {base_vps:.1f} -> "
                          f"fresh {new_vps:.1f} (floor {floor:.1f}) "
                          f"{verdict}")
                    if new_vps < floor:
                        failures.append(
                            f"verifies_per_sec regressed "
                            f">{args.max_regression:.0%}: "
                            f"{base_vps:.1f} -> {new_vps:.1f}")
            new_sps = fresh_profile.get("signs_per_sec")
            base_sps = (baseline_profile or {}).get("signs_per_sec")
            if new_sps is None:
                failures.append(
                    "crypto_profile carries no signs_per_sec field — the "
                    "signing leg of the crypto profile fell out of the bench")
            elif base_sps:
                floor = base_sps * (1.0 - args.max_regression)
                verdict = "ok" if new_sps >= floor else "REGRESSION"
                print(f"signs_per_sec: baseline {base_sps:.1f} -> fresh "
                      f"{new_sps:.1f} (floor {floor:.1f}) {verdict}")
                if new_sps < floor:
                    failures.append(
                        f"signs_per_sec regressed >{args.max_regression:.0%}: "
                        f"{base_sps:.1f} -> {new_sps:.1f}")

    # 10. Multiprocess deployment parity: the scenarios_mp row must be
    # present alongside any scenarios sweep, and both parities must hold.
    mp_rows = [row for row in fresh if row.get("bench") == "scenarios_mp"]
    if (scenario_rows or gate_rows) and not mp_rows:
        failures.append("fresh run has a scenarios sweep but no scenarios_mp "
                        "multiprocess-deployment row (DESIGN.md §14)")
    for row in mp_rows:
        label = f"multiprocess scenario {row.get('scenario')!r}"
        if row.get("fingerprint_parity") is not True:
            failures.append(
                f"{label} fingerprint_parity != true — the distributed run "
                "diverged from the monolithic simulator run")
        if row.get("multiprocess_obs_parity") is not True:
            failures.append(
                f"{label} multiprocess_obs_parity != true — the merged "
                "metrics shards diverged from the single-process SIM-domain "
                "fingerprint")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench regression gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
