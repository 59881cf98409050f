// The deterministic world plan shared by every scenario entry point, and
// the runtime that turns it into live, verifiable nodes.
//
// run_scenario (runner.cpp), the trace replayer (replay.h), and the
// multiprocess conductor/participants (multiprocess.h) must all construct
// the SAME world from a ScenarioSpec: same topology, same neighborhoods,
// same keys, same link latencies, same jittered arrival schedule — or the
// fingerprint parity the transport work is gated on would be vacuous.
// plan_world() is that single derivation: a pure function of the spec
// (every DRBG stream it consumes is seeded from spec.seed with a fixed
// personalization string), producing a value two processes can re-derive
// independently and agree on byte for byte.
//
// WorldRuntime is the single place a plan becomes PvrNodes: it owns the
// world VerifyContext, builds every node (or a node process's owned
// shard), and scores the evidence; the window-close queue verifies them.
// The simulator run, trace replay, and the lockstep node processes differ
// only in which message plane drives the nodes it built.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/pvr_speaker.h"
#include "core/verify_context.h"
#include "engine/verification_engine.h"
#include "net/message_trace.h"
#include "obs/metrics.h"
#include "scenario/runner.h"

namespace pvr::net {
class Simulator;
}  // namespace pvr::net

namespace pvr::scenario {

// The runner's link latencies are drawn from [kMinScenarioLatency,
// kMaxScenarioLatency); collect_window must exceed the ceiling so a
// provider input sent at the prover's start instant still lands inside the
// collection window.
inline constexpr net::SimTime kMinScenarioLatency = 500;
inline constexpr net::SimTime kMaxScenarioLatency = 1500;

struct PlannedLink {
  bgp::AsNumber a = 0;
  bgp::AsNumber b = 0;
  net::LinkConfig config;
};

// One harness-driven protocol action: a provider's provide_input or the
// prover's start_round, with every jitter/length draw already materialized
// so two processes schedule identical closures at identical times. The
// vector order IS the runner's historical scheduling order (per arrival:
// each provider's input, then the prover start), which pins the simulator
// event-sequence tiebreak for same-time events.
struct AppEvent {
  net::SimTime at = 0;
  bool is_input = false;           // true: provide_input, false: start_round
  std::size_t hood = 0;
  std::size_t provider_index = 0;  // inputs: index into hoods[hood].providers
  bgp::AsNumber actor = 0;         // the provider or prover ASN
  std::uint64_t epoch = 1;
  bgp::Ipv4Prefix prefix;
  std::size_t route_length = 0;    // inputs only
};

struct WorldPlan {
  GeneratedTopology topology;
  std::vector<Neighborhood> hoods;
  std::unique_ptr<AdversaryStrategy> adversary;
  core::ProverMisbehavior misbehavior;  // applied to attacked provers
  std::vector<bool> attacked;           // per hood
  std::set<bgp::AsNumber> attacked_provers;
  std::set<bgp::AsNumber> colluders;
  std::vector<bgp::AsNumber> participants;  // sorted, every hood member
  core::AsKeyPairs keys;
  std::vector<PlannedLink> links;
  std::vector<RoundArrival> arrivals;
  std::vector<AppEvent> app_events;
};

// Derives the full plan. Throws like run_scenario: std::invalid_argument
// on unworkable timing, std::runtime_error when the topology yields no
// qualifying neighborhood.
[[nodiscard]] WorldPlan plan_world(const ScenarioSpec& spec);

// The synthetic provider route for a round (path length `length`).
[[nodiscard]] bgp::Route provider_route(const bgp::Ipv4Prefix& prefix,
                                        bgp::AsNumber provider,
                                        std::size_t length);

// Conservative bound on how long after its window closes a round of
// `plan` can still be referenced by an in-flight message (DESIGN.md §10).
[[nodiscard]] net::SimTime settle_horizon_for(const ScenarioSpec& spec,
                                              const WorldPlan& plan);

// Evidence accessor: the log of hoods[hood].verifiers()[verifier_index],
// however the caller stores it (live node, replayed node, or evidence
// shipped back from a node process).
using EvidenceAccessor = std::function<const std::vector<core::Evidence>&(
    std::size_t hood, std::size_t verifier_index)>;

// The canonical scoring pass: walks every verifier's evidence log in
// (hood, verifier) order and fills evidence_total / false_evidence /
// audit_failures / attacked_rounds / detected_rounds / detection_rate /
// evidence_digest on `report`. Identical logs in identical order produce
// identical fields — which is how a replayed or distributed run proves it
// reproduced the canonical one.
void score_evidence(const WorldPlan& plan, const EvidenceAccessor& evidence_of,
                    ScenarioReport& report);

// The report fields every deployment fills the same way: identity
// (scenario, adversary, seed, workers = spec.workers, online = spec.online,
// hw_threads), world shape (as_count, neighborhoods, pvr_nodes), and the
// prover counters summed over `provers` (rounds_started, windows_fired,
// coalesced) — live nodes' counters, or the ones a trace or node process
// carried back.
void fill_report(const ScenarioSpec& spec, const WorldPlan& plan,
                 std::span<const net::TraceProverMeta> provers,
                 ScenarioReport& report);

// The live protocol state of a planned world. Builds one PvrNode per
// participant from the plan — every participant, or only those `owns`
// accepts (a node process keeps owner_of(...) == its index) — all
// verifying through the runtime's world VerifyContext, which every engine
// verifying them must share (verify_context()).
//
// Node ownership: the runtime owns the nodes it builds until
// register_with() hands them to a net::Simulator that delivers to them
// (the runner); replay and node processes keep them in the runtime. The
// cached pointers below stay valid either way for as long as the owner
// lives, so per-event paths are a plain indexed load.
class WorldRuntime {
 public:
  // hoods[h]'s nodes; nullptr where `owns` rejected the AS.
  struct Hood {
    core::PvrNode* prover = nullptr;
    std::vector<core::PvrNode*> providers;  // Neighborhood::providers order
    std::vector<core::PvrNode*> verifiers;  // Neighborhood::verifiers() order
  };

  // `plan` is borrowed and must outlive the runtime.
  WorldRuntime(const ScenarioSpec& spec, const WorldPlan& plan,
               const std::function<bool(bgp::AsNumber)>& owns = {});
  WorldRuntime(const WorldRuntime&) = delete;
  WorldRuntime& operator=(const WorldRuntime&) = delete;

  // Moves every node into `sim` (registered under its ASN), which then owns
  // them and delivers their messages.
  void register_with(net::Simulator& sim);

  [[nodiscard]] const core::VerifyContext& verify_context() const noexcept {
    return ctx_;
  }
  [[nodiscard]] const Hood& hood(std::size_t h) const { return hoods_[h]; }
  // Every node built here, in build order.
  [[nodiscard]] std::span<core::PvrNode* const> nodes() const noexcept {
    return nodes_;
  }
  // The node for `asn`, or nullptr when it was not built here.
  [[nodiscard]] core::PvrNode* find(bgp::AsNumber asn) const;

  [[nodiscard]] const WorldPlan& plan() const noexcept { return *plan_; }

  // The counters of every prover built here, in hood order.
  [[nodiscard]] std::vector<net::TraceProverMeta> prover_meta() const;
  // score_evidence over the live verifiers' logs; every verifier must have
  // been built here.
  void score(ScenarioReport& report) const;

 private:
  const WorldPlan* plan_;
  core::VerifyContext ctx_;
  std::vector<std::unique_ptr<core::PvrNode>> owned_;  // until register_with
  std::vector<core::PvrNode*> nodes_;
  std::vector<core::PvrNode*> by_participant_;  // plan.participants order
  std::vector<Hood> hoods_;
};

// The window-close queue (DESIGN.md §10, §12). A prover's window close is
// the only way a round reaches the engine, in every deployment. The order
// half belongs to whoever holds the clock (the runner, or the multiprocess
// conductor); the verify half to whoever holds the nodes (the runner, trace
// replay, a node process). Offline is the queue flushed once at
// quiescence, and replay and the node processes flush the run's
// window-close log, so every node applies its findings in close order.

// Routes `prover`'s window-close events to `sink`, one per round.
void watch_window_closes(core::PvrNode& prover, const net::Transport& clock,
                         std::function<void(const net::TraceClose&)> sink);

// The order half: close events in, settled batches out, in close order.
class SettleOrder {
 public:
  // A round settles `horizon` after its window closed (settle_horizon_for).
  explicit SettleOrder(net::SimTime horizon) noexcept : horizon_(horizon) {}

  // Closes arrive in time order, so the queue is sorted by settle time.
  void close(const net::TraceClose& round) { pending_.push_back(round); }
  // Pops every round settled by `now` (every round when `flush`) and
  // records its settle latency in latency() and scenario.settle_us — at
  // sealing, so harvesting a tick later cannot widen the gated quantiles.
  [[nodiscard]] std::vector<net::TraceClose> settle(net::SimTime now,
                                                    bool flush);

  [[nodiscard]] net::SimTime horizon() const noexcept { return horizon_; }
  // Local, so reports carry the quantiles in both obs build flavors.
  [[nodiscard]] const obs::Histogram& latency() const noexcept {
    return latency_;
  }

 private:
  net::SimTime horizon_;
  std::deque<net::TraceClose> pending_;
  obs::Histogram latency_;
};

// The verify half, over the verifiers `world` built (borrowed; it must
// outlive the pipeline), on an engine of `workers` workers. A sealed batch
// checks the RoundState snapshots taken at submission, so the simulator
// mutating live node state before the harvest cannot race the checks.
class VerifyPipeline {
 public:
  VerifyPipeline(const WorldRuntime& world, std::size_t workers);

  // One drain tick: harvest() the batch in flight, then submit `batch` for
  // every local verifier and hand it to the engine's workers without
  // blocking (an empty batch seals nothing). Throws std::invalid_argument,
  // submitting nothing, on a round of no planned prover or a bad prefix.
  void step(std::span<const net::TraceClose> batch);
  // Collects the batch in flight (findings applied in submission order),
  // GCs its rounds on every local node, and retires the root-dedup digests
  // of each (hood, epoch) whose planned rounds have all been harvested.
  // No-op when nothing is in flight.
  void harvest();

  [[nodiscard]] bool in_flight() const noexcept { return engine_.has_pending(); }

  struct Totals {  // summed over every harvested batch
    std::uint64_t failed_rounds = 0;  // rounds whose checks threw
    std::uint64_t batches = 0;
    double overlapped_ms = 0;   // fold time that overlapped the caller
    double fold_window_ms = 0;  // begin_drain to last fold, per batch
    double blocked_ms = 0;      // caller wall time inside step and harvest
  };
  [[nodiscard]] const Totals& totals() const noexcept { return totals_; }

 private:
  struct Round {
    std::size_t hood = 0;
    core::ProtocolId id;
  };

  const WorldRuntime* world_;
  engine::VerificationEngine engine_;
  std::vector<Round> inflight_;
  // Rounds left to harvest per (hood, epoch); at zero the epoch's
  // seen-root digests retire (PvrNode::gc_epoch_roots).
  std::map<std::pair<std::size_t, std::uint64_t>, std::uint64_t>
      epoch_rounds_left_;
  Totals totals_;
};

// Byte accounting from a stats snapshot — the live simulator's, or the
// recorded SimStats a MessageTrace carries.
void fill_byte_accounting(const net::SimStats& stats, ScenarioReport& report);

}  // namespace pvr::scenario
