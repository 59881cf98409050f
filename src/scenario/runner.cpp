#include "scenario/runner.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/evidence.h"
#include "core/pvr_speaker.h"
#include "engine/verification_engine.h"
#include "net/simulator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/world.h"

namespace pvr::scenario {

namespace {

[[nodiscard]] double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string ScenarioReport::fingerprint() const {
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "%s|%s|seed=%" PRIu64 "|ases=%zu|hoods=%zu|nodes=%zu|started=%" PRIu64
      "|windows=%" PRIu64 "|coalesced=%d|attacked=%" PRIu64
      "|detected=%" PRIu64 "|evidence=%" PRIu64 "|false=%" PRIu64
      "|audit_fail=%" PRIu64 "|in=%" PRIu64 "|bundle=%" PRIu64
      "|gossip=%" PRIu64 "|reveal=%" PRIu64 "|total=%" PRIu64
      "|gossip_msgs=%" PRIu64,
      scenario.c_str(), adversary.c_str(), seed, as_count, neighborhoods,
      pvr_nodes, rounds_started, windows_fired, coalesced ? 1 : 0,
      attacked_rounds, detected_rounds, evidence_total, false_evidence,
      audit_failures, bytes_input, bytes_bundle, bytes_gossip,
      bytes_reveal_export, bytes_total, gossip_messages);
  return buffer;
}

std::string ScenarioReport::to_json_line() const {
  char buffer[2048];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"bench\":\"scenarios\",\"scenario\":\"%s\",\"adversary\":\"%s\","
      "\"seed\":%" PRIu64 ",\"workers\":%zu,\"as_count\":%zu,"
      "\"neighborhoods\":%zu,\"rounds_started\":%" PRIu64
      ",\"windows_fired\":%" PRIu64 ",\"coalesced\":%s,"
      "\"attacked_rounds\":%" PRIu64 ",\"detected_rounds\":%" PRIu64
      ",\"detection_rate\":%.4f,\"evidence_total\":%" PRIu64
      ",\"false_evidence\":%" PRIu64 ",\"audit_failures\":%" PRIu64
      ",\"verify_failures\":%" PRIu64 ",\"online\":%s"
      ",\"peak_open_rounds\":%" PRIu64 ",\"drain_batches\":%" PRIu64
      ",\"p50_settle_us\":%" PRIu64 ",\"p99_settle_us\":%" PRIu64
      ",\"rsa_verifies\":%" PRIu64 ",\"sig_cache_hits\":%" PRIu64
      ",\"world_cache_hits\":%" PRIu64
      ",\"bytes_total\":%" PRIu64 ",\"bytes_gossip\":%" PRIu64
      ",\"gossip_messages\":%" PRIu64 ",\"peak_root_digests\":%" PRIu64
      ",\"hw_threads\":%zu,\"sim_ms\":%.1f,\"verify_ms\":%.1f"
      ",\"wall_ms\":%.1f,\"pipeline_overlap_ratio\":%.4f"
      ",\"rounds_per_sec\":%.1f}",
      scenario.c_str(), adversary.c_str(), seed, workers, as_count,
      neighborhoods, rounds_started, windows_fired, coalesced ? "true" : "false",
      attacked_rounds, detected_rounds, detection_rate, evidence_total,
      false_evidence, audit_failures, verify_failures,
      online ? "true" : "false", peak_open_rounds, drain_batches,
      p50_settle_us, p99_settle_us, rsa_verifies, sig_cache_hits,
      world_cache_hits, bytes_total,
      bytes_gossip, gossip_messages, peak_root_digests, hw_threads, sim_ms,
      verify_ms, wall_ms, pipeline_overlap_ratio, rounds_per_sec);
  return buffer;
}

ScenarioReport run_scenario(const ScenarioSpec& spec,
                            net::MessageTrace* record) {
  if (spec.online && spec.drain_interval_us == 0) {
    throw std::invalid_argument(
        "run_scenario: online mode needs a nonzero drain_interval_us");
  }
  ScenarioReport report;

  // Crypto profile baseline: the report's rsa_verifies/sig_cache_hits are
  // this run's delta of the process-wide counters (scenario runs are
  // sequential within a process). Both stay 0 under -DPVR_OBS=OFF.
  const obs::HotMetrics& hot = obs::MetricsRegistry::global().hot;
  const std::uint64_t rsa_verifies_before = hot.crypto_rsa_verifies.value();
  const std::uint64_t cache_hits_before = hot.crypto_sig_cache_hits.value();
  const std::uint64_t world_hits_before = hot.crypto_world_cache_hits.value();
  // Settle latencies aggregate through a local histogram so the report
  // carries them in BOTH obs build flavors (the global scenario.settle_us
  // histogram additionally feeds obs snapshots when hooks are compiled in).
  obs::Histogram settle_hist;

  // 1–3. The deterministic world plan: topology, neighborhoods, adversary,
  // keys, link latencies, and the jittered round schedule — shared with the
  // trace replayer and the multiprocess conductor, which must re-derive the
  // identical world (world.h).
  WorldPlan plan = plan_world(spec);
  const std::vector<Neighborhood>& hoods = plan.hoods;

  // 4. World: one PvrNode per participant (owned by the simulator that
  // delivers to them, which is destroyed before the runtime's verify
  // context), star + verifier-mesh links with the planned jittered
  // latencies. The runtime resolves node pointers once — the scheduling
  // lambdas, the verification loops, and the scoring pass below all reuse
  // them instead of looking nodes up per event.
  WorldRuntime world(spec, plan);
  net::Simulator sim(spec.seed);
  net::Transport& transport = sim.transport();
  if (record != nullptr) sim.set_trace(record);
  world.register_with(sim);
  for (const PlannedLink& link : plan.links) {
    sim.connect(link.a, link.b, link.config);
  }
  plan.adversary->install(transport, hoods, plan.attacked, spec.seed);

  // 5. Jittered round traffic, scheduled in the plan's canonical order so
  // same-time events keep their historical sequence tiebreak.
  for (const AppEvent& event : plan.app_events) {
    if (event.is_input) {
      core::PvrNode* provider_node =
          world.hood(event.hood).providers[event.provider_index];
      sim.schedule(event.at, [&transport, provider_node, event] {
        provider_node->provide_input(
            transport, event.epoch, event.prefix,
            provider_route(event.prefix, event.actor, event.route_length));
      });
    } else {
      core::PvrNode* prover_node = world.hood(event.hood).prover;
      sim.schedule(event.at, [&transport, prover_node, event] {
        prover_node->start_round(transport, event.epoch, event.prefix);
      });
    }
  }

  // 6. Engine-backed verification. Offline: run to quiescence, submit every
  // round, one drain. Online (the paper's deployment model): each prover's
  // window-close event queues its rounds; once a round's settle horizon has
  // passed, a periodic in-simulation drain submits it to the long-lived
  // engine, folds the findings back, and GCs the settled state — so memory
  // tracks concurrently-open windows, not trace length. Either way the
  // engine drains with rethrow_errors = false: a round whose closure threw
  // is COUNTED (report.verify_failures, gated nonzero-fatal by the bench
  // and CI) instead of silently discarded like the pre-PR-5
  // `(void)engine.drain()` — or, worse, aborting the whole trace.
  engine::VerificationEngine engine({.workers = spec.workers},
                                    &world.verify_context());
  const bool pipelined = spec.online && spec.pipelined;
  double verify_blocked_ms = 0;  // sim-thread wall time spent on verification
  double overlapped_ms = 0;      // fold time that overlapped the simulation
  double fold_window_ms = 0;     // total async fold window across batches

  struct SettledEntry {
    net::SimTime settled_at = 0;
    std::size_t hood = 0;
    core::ProtocolId id;
  };
  std::deque<SettledEntry> pending;  // window-close order == settle order
  // The two-slot batch buffer (DESIGN.md §12): `batch` is the slot being
  // gathered and sealed this tick; `inflight` is the previous batch, owned
  // by the engine's workers until the next tick harvests it. Entries are
  // immutable after sealing — the engine verifies over the shared_ptr
  // RoundState snapshots defer_finalize_checks took at submit time, so the
  // simulator mutating live node state in between cannot race the checks.
  std::vector<SettledEntry> batch;
  std::vector<SettledEntry> inflight;
  bool inflight_active = false;

  // Rounds left to harvest per (hood, epoch): when the count hits zero,
  // every round of the epoch is past its settle horizon AND harvested, so
  // the epoch's seen-root dedup digests retire (gc_epoch_roots).
  std::map<std::pair<std::size_t, std::uint64_t>, std::uint64_t>
      epoch_rounds_left;
  if (spec.online) {
    for (const RoundArrival& arrival : plan.arrivals) {
      epoch_rounds_left[{arrival.neighborhood, arrival.epoch}] += 1;
    }
  }

  const net::SimTime settle_horizon =
      spec.settle_horizon_us != 0
          ? spec.settle_horizon_us
          : settle_horizon_for(spec, *plan.adversary, [&] {
              std::size_t most = 0;
              for (const Neighborhood& hood : hoods) {
                most = std::max(most, hood.providers.size() + 1);
              }
              return most;
            }());

  const auto consume_report = [&](const engine::EngineReport& drained) {
    report.verify_failures += drained.failed_rounds;
    report.drain_batches += 1;
    overlapped_ms += drained.overlapped_ms;
    fold_window_ms += drained.verify_wall_ms;
  };

  // Harvest the in-flight batch: collect() applies its folded findings to
  // the nodes (one tick after submission), then the settled state is GC'd
  // and fully-harvested epochs retire their root-dedup digests.
  const auto harvest = [&] {
    if (!inflight_active) return;
    const double t0 = now_ms();
    const obs::TraceSpan span("scenario.harvest", "scenario");
    consume_report(engine.collect(/*rethrow_errors=*/false));
    for (const SettledEntry& entry : inflight) {
      const WorldRuntime::Hood& nodes = world.hood(entry.hood);
      for (core::PvrNode* verifier : nodes.verifiers) {
        (void)verifier->gc_finalized(entry.id);
      }
      (void)nodes.prover->gc_finalized(entry.id);
      const auto left = epoch_rounds_left.find({entry.hood, entry.id.epoch});
      if (left != epoch_rounds_left.end() && --left->second == 0) {
        // The settle horizon bounds gossip chains AND the adversary's
        // replay lag, so with every round of this (hood, epoch) harvested,
        // no message referencing the epoch's roots can still arrive — a
        // late replay after this retirement would miss the dedup and
        // re-create round state, which the fingerprint-parity gates would
        // catch (same empirical enforcement as the horizon itself).
        const bgp::AsNumber prover = hoods[entry.hood].prover;
        for (core::PvrNode* verifier : nodes.verifiers) {
          (void)verifier->gc_epoch_roots(prover, entry.id.epoch);
        }
        (void)nodes.prover->gc_epoch_roots(prover, entry.id.epoch);
        epoch_rounds_left.erase(left);
      }
    }
    inflight.clear();
    inflight_active = false;
    verify_blocked_ms += now_ms() - t0;
  };

  // Gather every settled round and seal them as the next batch: submit all
  // verifier rounds, then begin_drain hands the batch to the workers
  // WITHOUT blocking (pipelined mode harvests it next tick).
  const auto submit_settled = [&](bool flush_all) {
    batch.clear();
    while (!pending.empty() &&
           (flush_all || pending.front().settled_at <= sim.now())) {
      batch.push_back(pending.front());
      pending.pop_front();
    }
    if (batch.empty()) return;
    const double t0 = now_ms();
    const obs::TraceSpan flush_span("scenario.drain_flush", "scenario");
    obs::TraceWriter& tracer = obs::TraceWriter::global();
    for (const SettledEntry& entry : batch) {
      world.submit_round(engine, entry.hood, entry.id);
      // Settle latency in SIM time, recorded at SUBMISSION: the round's
      // window closed at settled_at - settle_horizon and this tick is when
      // its verification was sealed. Identical at any worker count (the
      // drain schedule is simulated) and identical pipelined or not — the
      // harvest landing one tick later must not widen the gated quantiles.
      const net::SimTime close_at = entry.settled_at - settle_horizon;
      const std::uint64_t latency =
          static_cast<std::uint64_t>(sim.now() - close_at);
      settle_hist.record(latency);
      PVR_OBS_RECORD(scenario_settle_us, latency);
      if (tracer.active()) {
        tracer.sim_span("round.settle", entry.hood,
                        static_cast<std::uint64_t>(close_at),
                        static_cast<std::uint64_t>(sim.now()));
      }
    }
    engine.begin_drain();
    inflight.swap(batch);
    inflight_active = true;
    verify_blocked_ms += now_ms() - t0;
  };

  if (spec.online) {
    report.settle_horizon_us = settle_horizon;
    for (std::size_t h = 0; h < hoods.size(); ++h) {
      const bgp::AsNumber prover = hoods[h].prover;
      world.hood(h).prover->set_window_close_handler(
          [&sim, &pending, settle_horizon, h, prover](
              std::uint64_t epoch, const std::vector<bgp::Ipv4Prefix>& prefixes) {
            const net::SimTime settled_at = sim.now() + settle_horizon;
            for (const bgp::Ipv4Prefix& prefix : prefixes) {
              pending.push_back(SettledEntry{
                  .settled_at = settled_at,
                  .hood = h,
                  .id = core::ProtocolId{
                      .prover = prover, .prefix = prefix, .epoch = epoch}});
            }
          });
    }
    if (pipelined) {
      // Pipelined tick: harvest batch N (findings applied one tick late),
      // then seal batch N+1 — the workers verify it while the simulator
      // advances toward the next tick.
      sim.schedule_periodic(spec.drain_interval_us, [&] {
        harvest();
        submit_settled(false);
      });
    } else {
      // Synchronous A/B schedule (pre-pipelining): seal and immediately
      // harvest inside one tick — blocking engine.drain semantics.
      sim.schedule_periodic(spec.drain_interval_us, [&] {
        submit_settled(false);
        harvest();
      });
    }
  }

  // Distributed-parity baseline (DESIGN.md §14): everything from here to the
  // end of scoring is the work the multiprocess deployment shards across the
  // conductor and its children. The delta's SIM-domain fingerprint is the
  // single-process reference merged_obs must reproduce; world planning and
  // key generation above run identically in EVERY process, so the delta
  // excludes them on both sides.
  const obs::MetricsSnapshot obs_baseline =
      obs::MetricsRegistry::global().snapshot();

  const double t_sim = now_ms();
  {
    const obs::TraceSpan sim_span("scenario.sim_run", "scenario");
    sim.run();
  }
  // Drain work ran interleaved on this thread; subtract the blocked share.
  report.sim_ms = now_ms() - t_sim - verify_blocked_ms;

  if (spec.online) {
    // Tail barrier: harvest whatever the final tick left in flight, then
    // flush the rounds whose settle horizon outlived the trace (plus any
    // final partial batch) and harvest those too. The simulator is
    // quiescent, so these submit against exactly the state the offline
    // path would have seen — after this barrier, online == offline.
    report.harvest_pending_at_end = inflight_active;
    harvest();
    submit_settled(true);
    harvest();
  } else {
    const double t_verify = now_ms();
    consume_report(world.verify_offline(engine));
    verify_blocked_ms += now_ms() - t_verify;
  }
  report.wall_ms = now_ms() - t_sim;
  report.verify_ms = verify_blocked_ms + overlapped_ms;
  report.pipeline_overlap_ratio =
      fold_window_ms > 0 ? overlapped_ms / fold_window_ms : 0.0;

  // 7. Score: the canonical pass shared with replay and the multiprocess
  // conductor (world.h) — identical evidence logs in identical order must
  // score identically wherever they were produced.
  world.score(report);
  const std::vector<net::TraceProverMeta> provers = world.prover_meta();
  fill_report(spec, plan, provers, report);
  for (const core::PvrNode* node : world.nodes()) {
    report.peak_open_rounds =
        std::max(report.peak_open_rounds,
                 static_cast<std::uint64_t>(node->peak_open_rounds()));
    report.peak_root_digests =
        std::max(report.peak_root_digests,
                 static_cast<std::uint64_t>(node->peak_seen_root_digests()));
    report.final_root_epochs =
        std::max(report.final_root_epochs,
                 static_cast<std::uint64_t>(node->seen_root_epochs()));
  }

  fill_byte_accounting(sim.stats(), report);

  // Finalize the recorded trace: identity, the run's wire stats, and the
  // per-prover round counters replay_trace() reports instead of replaying
  // the provers' dynamic window machinery (DESIGN.md §13).
  if (record != nullptr) {
    sim.set_trace(nullptr);
    record->scenario = spec.name;
    record->seed = spec.seed;
    record->backend = "sim";
    record->stats = sim.stats();
    record->provers = provers;
  }

  report.p50_settle_us = settle_hist.quantile(0.5);
  report.p99_settle_us = settle_hist.quantile(0.99);
  report.rsa_verifies = hot.crypto_rsa_verifies.value() - rsa_verifies_before;
  report.sig_cache_hits =
      hot.crypto_sig_cache_hits.value() - cache_hits_before;
  report.world_cache_hits =
      hot.crypto_world_cache_hits.value() - world_hits_before;

  // Throughput over MEASURED elapsed time: with pipelining, wall_ms can be
  // less than sim_ms + verify_ms (the overlapped share is counted in both),
  // and the rate should credit that overlap.
  report.rounds_per_sec =
      report.wall_ms <= 0.0 ? 0.0
                            : static_cast<double>(report.rounds_started) /
                                  (report.wall_ms / 1000.0);

  report.obs_sim_fingerprint =
      obs::MetricsSnapshot::delta(obs::MetricsRegistry::global().snapshot(),
                                  obs_baseline)
          .sim_fingerprint();
  return report;
}

std::vector<std::string> scenario_names() {
  return {"equivocation_storm", "batch_split_evasion", "drop_replay_chaos"};
}

ScenarioSpec named_scenario(std::string_view name, std::uint64_t seed,
                            std::size_t rounds) {
  ScenarioSpec spec;
  spec.name = std::string(name);
  spec.seed = seed;
  spec.rounds = rounds;
  spec.topology.as_count = 1200;
  spec.neighborhoods = 6;
  if (name == "equivocation_storm") {
    // Dense Poisson arrivals against a deadline five times the collection
    // window: THE workload that finally coalesces staggered start_round
    // arrivals into shared aggregation windows.
    spec.adversary = "equivocator";
    spec.traffic.process = ArrivalProcess::kPoisson;
    spec.traffic.mean_interarrival_us = 1200;
    spec.batch_deadline = 20'000;
    return spec;
  }
  if (name == "batch_split_evasion") {
    // Bursts land several prefixes per neighborhood in one window; the
    // prover answers each burst with TWO signed windows claiming the same
    // prefixes (no shared batch number to pair on).
    spec.adversary = "batch_split";
    spec.traffic.process = ArrivalProcess::kBursty;
    spec.traffic.burst_size = 18;
    spec.traffic.mean_interarrival_us = 25'000;
    spec.batch_deadline = 15'000;
    return spec;
  }
  if (name == "drop_replay_chaos") {
    // Equivocating provers behind a hostile wire: gossip selectively
    // dropped, delayed, and stale roots replayed with reset hop counts.
    spec.adversary = "delay_replay";
    spec.traffic.process = ArrivalProcess::kPoisson;
    spec.traffic.mean_interarrival_us = 2000;
    spec.batch_deadline = 12'000;
    return spec;
  }
  throw std::invalid_argument("named_scenario: unknown scenario '" +
                              std::string(name) + "'");
}

}  // namespace pvr::scenario
