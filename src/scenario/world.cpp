#include "scenario/world.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/bundle_aggregation.h"
#include "crypto/sha256.h"
#include "net/simulator.h"
#include "obs/trace.h"

namespace pvr::scenario {

namespace {

// Evidence is self-contained signed artifacts; recovering which rounds an
// item covers means decoding them. A bundle/reveal/export names its round
// exactly; an aggregation root names (prover, epoch) plus every claimed
// prefix. Decoding failures are expected (each payload matches exactly one
// schema) and simply contribute nothing.
void append_covered_rounds(const core::Evidence& item,
                           std::vector<core::ProtocolId>& out) {
  for (const core::SignedMessage& message : item.messages) {
    try {
      out.push_back(core::CommitmentBundle::decode(message.payload).id);
      continue;
    } catch (const std::out_of_range&) {
    }
    try {
      const core::AggregatedBundle root =
          core::AggregatedBundle::decode(message.payload);
      for (const bgp::Ipv4Prefix& prefix : root.prefixes) {
        out.push_back(core::ProtocolId{
            .prover = root.prover, .prefix = prefix, .epoch = root.epoch});
      }
      continue;
    } catch (const std::out_of_range&) {
    }
    try {
      out.push_back(core::RevealToProvider::decode(message.payload).id);
      continue;
    } catch (const std::out_of_range&) {
    }
    try {
      out.push_back(core::RevealToRecipient::decode(message.payload).id);
      continue;
    } catch (const std::out_of_range&) {
    }
    try {
      out.push_back(core::ExportStatement::decode(message.payload).id);
    } catch (const std::out_of_range&) {
    }
  }
}

// Liveness classes are detectable but not third-party provable; everything
// else must convince the Auditor (audit_failures counts the exceptions).
[[nodiscard]] bool auditor_provable(core::ViolationKind kind) {
  return kind != core::ViolationKind::kMissingReveal &&
         kind != core::ViolationKind::kBadSignature;
}

// Evenly spreads `fraction` of `count` indices (floor-difference trick):
// attacked and honest neighborhoods interleave instead of clustering.
[[nodiscard]] std::vector<bool> spread_attacked(std::size_t count,
                                                double fraction) {
  std::vector<bool> attacked(count, false);
  const double f = std::clamp(fraction, 0.0, 1.0);
  for (std::size_t i = 0; i < count; ++i) {
    attacked[i] = static_cast<std::size_t>(static_cast<double>(i + 1) * f) >
                  static_cast<std::size_t>(static_cast<double>(i) * f);
  }
  return attacked;
}

// The PvrConfig of `asn` playing `role` in plan.hoods[hood] — the one
// derivation every deployment builds its nodes from.
[[nodiscard]] core::PvrConfig node_config(const ScenarioSpec& spec,
                                          const WorldPlan& plan,
                                          std::size_t hood, bgp::AsNumber asn,
                                          core::PvrRole role) {
  const Neighborhood& neighborhood = plan.hoods[hood];
  return core::PvrConfig{
      .asn = asn,
      .role = role,
      .directory = &plan.keys.directory,
      .private_key = &plan.keys.private_keys.at(asn).priv,
      .op = core::OperatorKind::kMinimum,
      .max_len = spec.max_len,
      .prover = neighborhood.prover,
      .providers = neighborhood.providers,
      .recipient = neighborhood.recipient,
      .collect_window = spec.collect_window,
      .batch_deadline = spec.batch_deadline,
      .misbehavior = role == core::PvrRole::kProver && plan.attacked[hood]
                         ? plan.misbehavior
                         : core::ProverMisbehavior{},
      .rng_seed = spec.seed,
      .gossip_hop_budget = spec.gossip_hop_budget,
  };
}

// Index of `asn` in the sorted participant list, or participants.size()
// when it is not a participant.
[[nodiscard]] std::size_t participant_index(const WorldPlan& plan,
                                            bgp::AsNumber asn) {
  const auto it = std::lower_bound(plan.participants.begin(),
                                   plan.participants.end(), asn);
  if (it == plan.participants.end() || *it != asn) {
    return plan.participants.size();
  }
  return static_cast<std::size_t>(it - plan.participants.begin());
}

[[nodiscard]] double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bgp::Route provider_route(const bgp::Ipv4Prefix& prefix,
                          bgp::AsNumber provider, std::size_t length) {
  std::vector<bgp::AsNumber> hops;
  hops.push_back(provider);
  for (std::size_t i = 1; i < length; ++i) {
    hops.push_back(static_cast<bgp::AsNumber>(60000 + i));
  }
  return bgp::Route{.prefix = prefix,
                    .path = bgp::AsPath(std::move(hops)),
                    .next_hop = provider,
                    .local_pref = 100,
                    .med = 0,
                    .origin = bgp::Origin::kIgp,
                    .communities = {}};
}

// Conservative bound on how long after its window closes a round can still
// be referenced by an in-flight message. After the prover's fan-out (one
// hop), the signed root floods the verifier mesh (the hop budget bounds
// each chain), the adversary may re-inject one captured copy after its
// replay lag (which floods again from a reset hop count), and every root
// arrival can trigger at most one escalation per verifier, each spreading
// bundles for another budget-bounded chain. Every hop costs at most the
// runner's latency ceiling plus the adversary's per-message delay bound.
// Soundness is enforced empirically: an understated horizon snapshots a
// round before its last message and breaks the online==offline fingerprint
// parity the tests and bench gate on.
net::SimTime settle_horizon_for(const ScenarioSpec& spec,
                                const WorldPlan& plan) {
  std::size_t max_verifiers = 0;
  for (const Neighborhood& hood : plan.hoods) {
    max_verifiers = std::max(max_verifiers, hood.providers.size() + 1);
  }
  const AdversaryStrategy& adversary = *plan.adversary;
  const net::SimTime per_hop = kMaxScenarioLatency + adversary.max_extra_delay();
  const net::SimTime chain =
      static_cast<net::SimTime>(spec.gossip_hop_budget) + 1;
  const net::SimTime cascades = static_cast<net::SimTime>(max_verifiers) + 2;
  return per_hop * (chain * cascades + 1) + adversary.max_replay_lag();
}

WorldPlan plan_world(const ScenarioSpec& spec) {
  if (spec.collect_window <= kMaxScenarioLatency) {
    throw std::invalid_argument(
        "plan_world: collect_window must exceed the max link latency");
  }
  WorldPlan plan;

  // 1. Topology and neighborhoods.
  plan.topology = generate_topology(spec.topology, spec.seed);
  plan.hoods = select_neighborhoods(plan.topology, spec.neighborhoods,
                                    spec.min_providers, spec.max_providers);
  if (plan.hoods.empty()) {
    throw std::runtime_error(
        "plan_world: topology yielded no qualifying neighborhood");
  }

  // 2. Adversary plan.
  plan.adversary = make_adversary(spec.adversary);
  plan.misbehavior = plan.adversary->prover_misbehavior();
  plan.attacked = spread_attacked(
      plan.hoods.size(),
      plan.misbehavior.honest() ? 0.0 : spec.attacked_fraction);
  for (std::size_t h = 0; h < plan.hoods.size(); ++h) {
    if (!plan.attacked[h]) continue;
    plan.attacked_provers.insert(plan.hoods[h].prover);
    for (const bgp::AsNumber colluder : plan.adversary->colluders(plan.hoods[h])) {
      plan.colluders.insert(colluder);
    }
  }

  // 3. Keys for every participant.
  for (const Neighborhood& hood : plan.hoods) {
    const std::vector<bgp::AsNumber> members = hood.members();
    plan.participants.insert(plan.participants.end(), members.begin(),
                             members.end());
  }
  std::sort(plan.participants.begin(), plan.participants.end());
  crypto::Drbg key_rng(spec.seed, "scenario-keys");
  plan.keys = core::generate_keys(plan.participants, key_rng, spec.key_bits);

  // 4. Link latencies, drawn in the canonical per-hood order (prover star,
  // then the verifier mesh upper triangle) so the DRBG stream matches the
  // historical runner draw for draw.
  crypto::Drbg link_rng(spec.seed, "scenario-links");
  const auto jittered = [&link_rng] {
    return net::LinkConfig{
        .latency = kMinScenarioLatency +
                   link_rng.uniform(kMaxScenarioLatency - kMinScenarioLatency)};
  };
  for (const Neighborhood& hood : plan.hoods) {
    const std::vector<bgp::AsNumber> verifiers = hood.verifiers();
    for (const bgp::AsNumber verifier : verifiers) {
      plan.links.push_back(PlannedLink{hood.prover, verifier, jittered()});
    }
    for (std::size_t i = 0; i < verifiers.size(); ++i) {
      for (std::size_t j = i + 1; j < verifiers.size(); ++j) {
        plan.links.push_back(PlannedLink{verifiers[i], verifiers[j], jittered()});
      }
    }
  }

  // 5. Jittered round traffic, one AppEvent per scheduled closure in the
  // canonical order (per arrival: each provider's input, then the prover
  // start) with every jitter/length draw materialized.
  plan.arrivals = generate_arrivals(spec.traffic, plan.hoods.size(),
                                    spec.rounds, spec.seed);
  crypto::Drbg input_rng(spec.seed, "scenario-inputs");
  for (const RoundArrival& arrival : plan.arrivals) {
    const Neighborhood& hood = plan.hoods[arrival.neighborhood];
    for (std::size_t p = 0; p < hood.providers.size(); ++p) {
      const net::SimTime jitter =
          spec.traffic.input_jitter_us == 0
              ? 0
              : input_rng.uniform(spec.traffic.input_jitter_us);
      const std::size_t length = 1 + input_rng.uniform(spec.max_len);
      plan.app_events.push_back(AppEvent{.at = arrival.at + jitter,
                                         .is_input = true,
                                         .hood = arrival.neighborhood,
                                         .provider_index = p,
                                         .actor = hood.providers[p],
                                         .epoch = arrival.epoch,
                                         .prefix = arrival.prefix,
                                         .route_length = length});
    }
    plan.app_events.push_back(AppEvent{.at = arrival.at +
                                             spec.traffic.input_jitter_us,
                                       .is_input = false,
                                       .hood = arrival.neighborhood,
                                       .actor = hood.prover,
                                       .epoch = arrival.epoch,
                                       .prefix = arrival.prefix});
  }
  return plan;
}

void score_evidence(const WorldPlan& plan, const EvidenceAccessor& evidence_of,
                    ScenarioReport& report) {
  const core::Auditor auditor(&plan.keys.directory);
  const std::vector<core::ViolationKind> expected =
      plan.adversary->expected_kinds();
  std::set<core::ProtocolId> attacked_rounds;
  for (const RoundArrival& arrival : plan.arrivals) {
    const Neighborhood& hood = plan.hoods[arrival.neighborhood];
    if (!plan.attacked_provers.contains(hood.prover)) continue;
    attacked_rounds.insert(core::ProtocolId{.prover = hood.prover,
                                            .prefix = arrival.prefix,
                                            .epoch = arrival.epoch});
  }

  std::set<core::ProtocolId> detected;
  crypto::Sha256 evidence_hasher;
  for (std::size_t h = 0; h < plan.hoods.size(); ++h) {
    const std::vector<bgp::AsNumber> verifier_asns = plan.hoods[h].verifiers();
    for (std::size_t v = 0; v < verifier_asns.size(); ++v) {
      const bgp::AsNumber verifier = verifier_asns[v];
      for (const core::Evidence& item : evidence_of(h, v)) {
        report.evidence_total += 1;
        // Hash the evidence log IN ORDER (node order, then log order): the
        // digest pins the application order the two-slot pipeline must
        // preserve, not just the counts the fingerprint covers.
        evidence_hasher.update(item.to_string());
        for (const core::SignedMessage& msg : item.messages) {
          evidence_hasher.update(std::span<const std::uint8_t>(msg.payload));
        }
        if (!plan.attacked_provers.contains(item.accused)) {
          report.false_evidence += 1;
          continue;
        }
        if (auditor_provable(item.kind) && !auditor.validate(item)) {
          report.audit_failures += 1;
        }
        if (plan.colluders.contains(verifier)) continue;
        if (std::find(expected.begin(), expected.end(), item.kind) ==
            expected.end()) {
          continue;
        }
        std::vector<core::ProtocolId> covered;
        append_covered_rounds(item, covered);
        for (const core::ProtocolId& id : covered) {
          if (attacked_rounds.contains(id)) detected.insert(id);
        }
      }
    }
  }
  report.evidence_digest = crypto::digest_hex(evidence_hasher.finalize());
  report.attacked_rounds = attacked_rounds.size();
  report.detected_rounds = detected.size();
  report.detection_rate =
      attacked_rounds.empty()
          ? 1.0
          : static_cast<double>(detected.size()) /
                static_cast<double>(attacked_rounds.size());
}

void fill_report(const ScenarioSpec& spec, const WorldPlan& plan,
                 std::span<const net::TraceProverMeta> provers,
                 ScenarioReport& report) {
  report.scenario = spec.name;
  report.adversary = spec.adversary;
  report.seed = spec.seed;
  report.workers = spec.workers;
  report.online = spec.online;
  report.hw_threads = std::thread::hardware_concurrency();
  report.as_count = plan.topology.graph.as_count();
  report.neighborhoods = plan.hoods.size();
  report.pvr_nodes = plan.participants.size();
  for (const net::TraceProverMeta& prover : provers) {
    report.rounds_started += prover.rounds_started;
    report.windows_fired += prover.windows_fired;
  }
  report.coalesced = report.windows_fired < report.rounds_started;
}

WorldRuntime::WorldRuntime(const ScenarioSpec& spec, const WorldPlan& plan,
                           const std::function<bool(bgp::AsNumber)>& owns)
    : plan_(&plan),
      ctx_(&plan.keys.directory, spec.world_sig_cache),
      by_participant_(plan.participants.size(), nullptr),
      hoods_(plan.hoods.size()) {
  for (std::size_t h = 0; h < plan.hoods.size(); ++h) {
    const Neighborhood& hood = plan.hoods[h];
    const auto build = [&](bgp::AsNumber asn,
                           core::PvrRole role) -> core::PvrNode* {
      if (owns && !owns(asn)) return nullptr;
      core::PvrConfig cfg = node_config(spec, plan, h, asn, role);
      cfg.verify_ctx = &ctx_;
      owned_.push_back(std::make_unique<core::PvrNode>(std::move(cfg)));
      core::PvrNode* node = owned_.back().get();
      nodes_.push_back(node);
      by_participant_[participant_index(plan, asn)] = node;
      return node;
    };
    Hood& nodes = hoods_[h];
    nodes.prover = build(hood.prover, core::PvrRole::kProver);
    core::PvrNode* recipient = build(hood.recipient, core::PvrRole::kRecipient);
    for (const bgp::AsNumber provider : hood.providers) {
      nodes.providers.push_back(build(provider, core::PvrRole::kProvider));
    }
    nodes.verifiers = nodes.providers;
    nodes.verifiers.push_back(recipient);
  }
}

void WorldRuntime::register_with(net::Simulator& sim) {
  for (std::unique_ptr<core::PvrNode>& node : owned_) {
    const bgp::AsNumber asn = node->asn();
    sim.add_node(asn, std::move(node));
  }
  owned_.clear();
}

core::PvrNode* WorldRuntime::find(bgp::AsNumber asn) const {
  const std::size_t index = participant_index(*plan_, asn);
  return index < by_participant_.size() ? by_participant_[index] : nullptr;
}

std::vector<net::TraceProverMeta> WorldRuntime::prover_meta() const {
  std::vector<net::TraceProverMeta> out;
  for (const Hood& hood : hoods_) {
    if (hood.prover == nullptr) continue;
    out.push_back(net::TraceProverMeta{
        .node = hood.prover->asn(),
        .rounds_started = hood.prover->rounds_started(),
        .windows_fired = hood.prover->windows_fired()});
  }
  return out;
}

void WorldRuntime::score(ScenarioReport& report) const {
  score_evidence(*plan_,
                 [this](std::size_t h, std::size_t v)
                     -> const std::vector<core::Evidence>& {
                   return hoods_[h].verifiers[v]->evidence();
                 },
                 report);
}

void watch_window_closes(core::PvrNode& prover, const net::Transport& clock,
                         std::function<void(const net::TraceClose&)> sink) {
  prover.set_window_close_handler(
      [&clock, sink = std::move(sink), asn = prover.asn()](
          std::uint64_t epoch, const std::vector<bgp::Ipv4Prefix>& prefixes) {
        for (const bgp::Ipv4Prefix& prefix : prefixes) {
          sink(net::TraceClose{.at = clock.now(),
                               .prover = asn,
                               .epoch = epoch,
                               .prefix_address = prefix.address(),
                               .prefix_length = prefix.length()});
        }
      });
}

std::vector<net::TraceClose> SettleOrder::settle(net::SimTime now,
                                                 bool flush) {
  std::vector<net::TraceClose> batch;
  while (!pending_.empty() &&
         (flush || pending_.front().at + horizon_ <= now)) {
    batch.push_back(pending_.front());
    pending_.pop_front();
  }
  obs::TraceWriter& tracer = obs::TraceWriter::global();
  for (const net::TraceClose& round : batch) {
    const std::uint64_t latency = static_cast<std::uint64_t>(now - round.at);
    latency_.record(latency);
    PVR_OBS_RECORD(scenario_settle_us, latency);
    if (tracer.active()) {
      tracer.sim_span("round.settle", round.prover,
                      static_cast<std::uint64_t>(round.at),
                      static_cast<std::uint64_t>(now));
    }
  }
  return batch;
}

VerifyPipeline::VerifyPipeline(const WorldRuntime& world, std::size_t workers)
    : world_(&world), engine_({.workers = workers}, &world.verify_context()) {
  for (const RoundArrival& arrival : world.plan().arrivals) {
    epoch_rounds_left_[{arrival.neighborhood, arrival.epoch}] += 1;
  }
}

void VerifyPipeline::step(std::span<const net::TraceClose> batch) {
  harvest();
  if (batch.empty()) return;
  const double t0 = now_ms();
  const obs::TraceSpan span("scenario.drain_flush", "scenario");
  const std::vector<Neighborhood>& hoods = world_->plan().hoods;
  std::vector<Round> rounds;  // every close mapped before any is submitted
  rounds.reserve(batch.size());
  for (const net::TraceClose& close : batch) {
    std::size_t hood = 0;
    while (hood < hoods.size() && hoods[hood].prover != close.prover) ++hood;
    if (hood == hoods.size()) {
      throw std::invalid_argument("VerifyPipeline: close names no prover");
    }
    rounds.push_back(Round{
        .hood = hood,
        .id = core::ProtocolId{
            .prover = close.prover,
            .prefix = bgp::Ipv4Prefix(close.prefix_address, close.prefix_length),
            .epoch = close.epoch}});
  }
  for (const Round& round : rounds) {
    for (core::PvrNode* verifier : world_->hood(round.hood).verifiers) {
      if (verifier != nullptr) (void)engine_.submit_node_round(*verifier, round.id);
    }
  }
  engine_.begin_drain();
  inflight_ = std::move(rounds);
  totals_.blocked_ms += now_ms() - t0;
}

void VerifyPipeline::harvest() {
  if (!engine_.has_pending()) return;
  const double t0 = now_ms();
  const obs::TraceSpan span("scenario.harvest", "scenario");
  const engine::EngineReport drained = engine_.collect(/*rethrow_errors=*/false);
  totals_.failed_rounds += drained.failed_rounds;
  totals_.batches += 1;
  totals_.overlapped_ms += drained.overlapped_ms;
  totals_.fold_window_ms += drained.verify_wall_ms;
  for (const Round& round : inflight_) {
    const WorldRuntime::Hood& nodes = world_->hood(round.hood);
    for (core::PvrNode* verifier : nodes.verifiers) {
      if (verifier != nullptr) (void)verifier->gc_finalized(round.id);
    }
    if (nodes.prover != nullptr) (void)nodes.prover->gc_finalized(round.id);
    const auto left = epoch_rounds_left_.find({round.hood, round.id.epoch});
    if (left == epoch_rounds_left_.end() || --left->second != 0) continue;
    // The settle horizon bounds gossip chains AND the adversary's replay
    // lag, so with every round of this (hood, epoch) harvested, no message
    // referencing the epoch's roots can still arrive — a late replay after
    // this retirement would miss the dedup and re-create round state,
    // which the fingerprint-parity gates would catch (same empirical
    // enforcement as the horizon itself).
    for (core::PvrNode* verifier : nodes.verifiers) {
      if (verifier != nullptr) {
        (void)verifier->gc_epoch_roots(round.id.prover, round.id.epoch);
      }
    }
    if (nodes.prover != nullptr) {
      (void)nodes.prover->gc_epoch_roots(round.id.prover, round.id.epoch);
    }
    epoch_rounds_left_.erase(left);
  }
  inflight_.clear();
  totals_.blocked_ms += now_ms() - t0;
}

void fill_byte_accounting(const net::SimStats& stats, ScenarioReport& report) {
  report.bytes_input = stats.channel_group(core::kInputChannel).bytes_sent;
  // kBundleChannel is a prefix of kBundleAggChannel, kGossipChannel of
  // kGossipRootChannel: each group covers the aggregated channel and its
  // per-prefix counterpart (escalated bundle gossip).
  report.bytes_bundle = stats.channel_group(core::kBundleChannel).bytes_sent;
  const net::ChannelStats gossip = stats.channel_group(core::kGossipChannel);
  report.bytes_gossip = gossip.bytes_sent;
  report.gossip_messages = gossip.messages_sent;
  report.bytes_reveal_export = stats.channel_group("pvr.reveal").bytes_sent +
                               stats.channel_group("pvr.export").bytes_sent;
  report.bytes_total = stats.channel_group("pvr.").bytes_sent;
}

}  // namespace pvr::scenario
