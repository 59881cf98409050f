// Deterministic adversarial scenario runner: the single entry point every
// workload harness (bench_scenarios, tests/scenario, examples) drives.
//
//   ScenarioSpec spec = named_scenario("equivocation_storm", seed, rounds);
//   ScenarioReport report = run_scenario(spec);
//   puts(report.to_json_line().c_str());
//
// One run: plan the world (world.h: a power-law topology, disjoint
// Figure-1 neighborhoods carved out of it, keys, links, jittered round
// traffic), build its PvrNodes with a WorldRuntime and hand them to the
// simulator, arm the adversary (prover misbehavior + wire interceptor),
// schedule the traffic, verify every round through the window-close queue
// (world.h) and the parallel engine, and score the outcome. Rounds
// reach the engine in window-close order in every mode: online
// (ScenarioSpec::online) they stream in as their windows settle, drained
// every drain_interval_us of sim time with settled state GC'd; offline the
// same queue is flushed once at quiescence. Everything except the
// wall-clock and drain-schedule fields of the report is a pure function of
// (spec) — fingerprint() and evidence_digest are the byte-identities the
// determinism gates compare across worker counts, drain intervals, online
// vs offline mode, trace replay and the multiprocess deployment.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/message_trace.h"
#include "scenario/adversary.h"
#include "scenario/topology_gen.h"
#include "scenario/traffic.h"

namespace pvr::scenario {

struct ScenarioSpec {
  std::string name = "custom";
  std::uint64_t seed = 1;
  TopologyParams topology;
  std::size_t neighborhoods = 6;  // PVR-active neighborhoods to carve out
  std::size_t min_providers = 4;
  std::size_t max_providers = 5;
  std::size_t rounds = 240;       // total rounds across all neighborhoods
  std::string adversary = "honest";
  // Fraction of neighborhoods whose prover mounts the attack (evenly
  // spread), so honest and attacked neighborhoods coexist and false
  // positives against the honest ones are actually observable.
  double attacked_fraction = 0.5;
  TrafficParams traffic;
  net::SimTime collect_window = 4000;
  net::SimTime batch_deadline = 0;  // > collect_window enables coalescing
  std::uint8_t gossip_hop_budget = 8;
  std::size_t workers = 8;
  std::size_t key_bits = 512;
  std::uint32_t max_len = 16;
  // Online verification (the paper's deployment model): every
  // drain_interval_us of SIMULATED time a drain tick harvests the previous
  // batch and seals the rounds whose settle horizon has passed
  // (DESIGN.md §10, §12), with settled rounds GC'd so memory is bounded by
  // concurrently-open windows instead of trace length. false = no ticks:
  // the window-close queue is flushed once at quiescence. The fingerprint
  // and evidence_digest are byte-identical in both modes at any worker
  // count and any drain interval.
  bool online = false;
  net::SimTime drain_interval_us = 25'000;
  // Must stay true: the synchronous drain schedule it once switched to is
  // gone, and run_scenario rejects false with std::invalid_argument. Kept
  // because existing harnesses assign it.
  bool pipelined = true;
  // World-level verified-signature cache (core::VerifyContext with
  // cache_verdicts = true, shared by every node and engine worker): a
  // (signing input, signature) pair already verified anywhere in the world
  // skips the RSA exponentiation on re-verification — gossip re-delivers
  // the same signed bundles to many verifiers. Verdicts, and therefore the
  // report fingerprint and evidence_digest, are byte-identical with the
  // cache off (the parity test's matrix); only wall time and the kSched
  // exponentiation counters change.
  bool world_sig_cache = true;
};

struct ScenarioReport {
  // Identity.
  std::string scenario;
  std::string adversary;
  std::uint64_t seed = 0;
  std::size_t workers = 0;
  // World shape.
  std::size_t as_count = 0;
  std::size_t neighborhoods = 0;
  std::size_t pvr_nodes = 0;
  // Round/window accounting (summed over neighborhood provers).
  std::uint64_t rounds_started = 0;
  std::uint64_t windows_fired = 0;
  bool coalesced = false;  // windows_fired < rounds_started
  // Detection scoring.
  std::uint64_t attacked_rounds = 0;
  std::uint64_t detected_rounds = 0;
  double detection_rate = 1.0;  // 1.0 when nothing was attacked
  std::uint64_t evidence_total = 0;
  std::uint64_t false_evidence = 0;   // evidence accusing an honest AS
  std::uint64_t audit_failures = 0;   // provable evidence the Auditor rejected
  // Engine rounds whose verification closure threw (EngineReport::
  // failed_rounds summed over every drain). The pre-PR-5 runner discarded
  // drain()'s result entirely, silently swallowing exactly these; the
  // bench and the CI regression gate now fail on any nonzero value.
  std::uint64_t verify_failures = 0;
  // Online-mode memory accounting: the highest open-round count any single
  // node reached (PvrNode::peak_open_rounds, maxed over all nodes), and
  // the number of interleaved engine drains. Both depend on the drain
  // schedule, so neither joins the fingerprint — the GC tests gate
  // peak_open_rounds against a bound derived from the spec instead.
  std::uint64_t peak_open_rounds = 0;
  std::uint64_t drain_batches = 0;
  bool online = false;
  // Whether the trace ended with a sealed batch still in flight (the tail
  // barrier then harvested it) — the state the final-flush parity test
  // forces. Always false offline.
  bool harvest_pending_at_end = false;
  // Root-dedup footprint (epoch-keyed seen-root GC): the highest live
  // digest count any node reached, and the epochs still holding digests
  // after the run (0 once every epoch retired). Drain-schedule-dependent,
  // so excluded from fingerprint(); the epoch-GC test bounds the peak by
  // open epochs instead.
  std::uint64_t peak_root_digests = 0;
  std::uint64_t final_root_epochs = 0;
  // The settle horizon the run derived (settle_horizon_for), so harnesses
  // can compute memory bounds from the same number online ticks wait out.
  net::SimTime settle_horizon_us = 0;
  // Wire accounting (per channel group).
  std::uint64_t bytes_input = 0;
  std::uint64_t bytes_bundle = 0;        // pvr.bundle + pvr.bundle.agg
  std::uint64_t bytes_gossip = 0;        // pvr.gossip + pvr.gossip.root
  std::uint64_t bytes_reveal_export = 0;
  std::uint64_t bytes_total = 0;         // all pvr.* channels
  std::uint64_t gossip_messages = 0;
  // Settle latency: sim-time µs from a round's window close to the batch
  // that verified and GC'd it (offline: the flush at quiescence),
  // aggregated over every round through a log-bucket histogram (quantiles
  // are bucket upper edges). Deterministic at any worker count, but a
  // function of the drain schedule — like drain_batches, reported and
  // regression-gated (rule 7) yet excluded from fingerprint().
  std::uint64_t p50_settle_us = 0;
  std::uint64_t p99_settle_us = 0;
  // Crypto profile for this run (global obs counter deltas): RSA verify
  // exponentiations performed and verified-root dedup hits that skipped
  // one. Zero under -DPVR_OBS=OFF, so excluded from fingerprint().
  std::uint64_t rsa_verifies = 0;
  std::uint64_t sig_cache_hits = 0;
  // World verdict-cache hits (crypto.world_cache_hits delta): verifications
  // answered from the shared VerifyContext without an exponentiation.
  // Schedule-dependent (which duplicate arrives first is a race between
  // workers), so excluded from fingerprint() like the other crypto deltas.
  std::uint64_t world_cache_hits = 0;
  // SHA-256 (hex) over every node's evidence log in node order — a strict
  // superset of the fingerprint's evidence COUNT: it pins the APPLICATION
  // ORDER, which is window-close order in every deployment. One invariant:
  // offline == online at any drain interval and worker count == replayed
  // == multiprocess. Kept out of fingerprint() only because it is a digest
  // itself, compared directly by the parity gates.
  std::string evidence_digest;
  // Wall clock — excluded from fingerprint(). sim_ms is the simulator's
  // own wall time (drain work subtracted), verify_ms the total
  // verification cost (sim-thread blocked time + worker time that
  // overlapped the simulation), wall_ms the measured end-to-end elapsed
  // time. With pipelining doing real work on a multi-core host,
  // wall_ms < sim_ms + verify_ms — the bench-gated inequality; on any
  // host, pipeline_overlap_ratio (overlapped fold time / total fold
  // window) is > 0 whenever batches verified while the simulator advanced.
  double sim_ms = 0;
  double verify_ms = 0;
  double wall_ms = 0;
  double pipeline_overlap_ratio = 0;
  double rounds_per_sec = 0;
  std::size_t hw_threads = 0;  // std::thread::hardware_concurrency()

  // The SIM-domain metrics fingerprint of this run's global-registry DELTA
  // (baseline right before the simulation, final read after scoring) —
  // the single-process reference the multiprocess conductor's merged
  // shards must reproduce byte-for-byte (DESIGN.md §14). Empty-valued
  // ("name=0|...") under -DPVR_OBS=OFF in BOTH deployments, so the parity
  // gate holds in both build flavors. Excluded from fingerprint() and
  // to_json_line(): it is itself a fingerprint, compared directly.
  std::string obs_sim_fingerprint;

  // Every deterministic field, one canonical string. Two runs of the same
  // spec — at ANY worker count — must produce identical fingerprints.
  [[nodiscard]] std::string fingerprint() const;
  [[nodiscard]] std::string to_json_line() const;
};

// Runs one scenario end to end. Throws std::runtime_error when the
// generated topology cannot supply a single qualifying neighborhood, and
// std::invalid_argument on specs whose timing cannot work (collect_window
// must exceed the max link latency or inputs could miss their windows).
//
// When `record` is non-null, the run additionally records its ordered
// delivery trace (plus wire stats and prover counters) into it — the
// artifact scenario::replay_trace() re-verifies to an identical
// fingerprint (DESIGN.md §13).
[[nodiscard]] ScenarioReport run_scenario(const ScenarioSpec& spec,
                                          net::MessageTrace* record = nullptr);

// Named presets — the scenario matrix bench_scenarios and CI sweep.
// "equivocation_storm", "batch_split_evasion", "drop_replay_chaos".
[[nodiscard]] std::vector<std::string> scenario_names();
[[nodiscard]] ScenarioSpec named_scenario(std::string_view name,
                                          std::uint64_t seed,
                                          std::size_t rounds);

}  // namespace pvr::scenario
