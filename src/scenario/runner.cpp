#include "scenario/runner.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/evidence.h"
#include "core/pvr_speaker.h"
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
  if (!spec.pipelined) {
    throw std::invalid_argument(
        "run_scenario: the synchronous drain schedule is gone");
  }
  ScenarioReport report;

  // Crypto profile baseline: the report's rsa_verifies/sig_cache_hits are
  // this run's delta of the process-wide counters (scenario runs are
  // sequential within a process). Both stay 0 under -DPVR_OBS=OFF.
  const obs::HotMetrics& hot = obs::MetricsRegistry::global().hot;
  const std::uint64_t rsa_verifies_before = hot.crypto_rsa_verifies.value();
  const std::uint64_t cache_hits_before = hot.crypto_sig_cache_hits.value();
  const std::uint64_t world_hits_before = hot.crypto_world_cache_hits.value();

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

  // 6. Verification through the window-close queue (world.h, DESIGN.md
  // §10): online, a periodic drain tick verifies every round whose settle
  // horizon has passed, so memory tracks concurrently-open windows, not
  // trace length; offline, the tail barrier below is the only flush.
  SettleOrder order(settle_horizon_for(spec, plan));
  VerifyPipeline verify(world, spec.workers);
  report.settle_horizon_us = order.horizon();
  for (std::size_t h = 0; h < hoods.size(); ++h) {
    watch_window_closes(*world.hood(h).prover, transport,
                        [&order, record](const net::TraceClose& round) {
                          order.close(round);
                          if (record != nullptr) record->closes.push_back(round);
                        });
  }
  if (spec.online) {
    // Harvest batch N, seal batch N+1: the workers verify it while the
    // simulator advances toward the next tick.
    sim.schedule_periodic(spec.drain_interval_us, [&] {
      verify.step(order.settle(sim.now(), /*flush=*/false));
    });
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
  report.sim_ms = now_ms() - t_sim - verify.totals().blocked_ms;

  // Tail barrier: harvest whatever the final tick left in flight, then
  // flush the rounds whose settle horizon outlived the trace and harvest
  // those too. The simulator is quiescent, so every round is verified
  // against its final state — after this barrier, online == offline.
  report.harvest_pending_at_end = verify.in_flight();
  verify.step(order.settle(sim.now(), /*flush=*/true));
  verify.harvest();
  const VerifyPipeline::Totals& totals = verify.totals();
  report.wall_ms = now_ms() - t_sim;
  report.verify_failures = totals.failed_rounds;
  report.drain_batches = totals.batches;
  report.verify_ms = totals.blocked_ms + totals.overlapped_ms;
  report.pipeline_overlap_ratio =
      totals.fold_window_ms > 0 ? totals.overlapped_ms / totals.fold_window_ms
                                : 0.0;

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

  report.p50_settle_us = order.latency().quantile(0.5);
  report.p99_settle_us = order.latency().quantile(0.99);
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
