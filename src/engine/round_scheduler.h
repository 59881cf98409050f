// FIFO worker pool for (prover, prefix, epoch) verification rounds.
//
// The paper's feasibility argument (§4) needs one commitment/reveal round
// per (prover, prefix, epoch) at Internet scale; this scheduler drains
// thousands of such rounds through a bounded thread pool.
//
// Queueing (DESIGN.md §8.1): one FIFO ticket queue. An idle worker always
// takes the lowest ticket not yet started, whatever round it belongs to,
// so no key — however hot — can pin work to one worker, and two tasks of
// the SAME round (the n+1 verifier checks of one (prover, prefix, epoch))
// run concurrently. This is safe because submitted closures are
// self-contained snapshots: they share no mutable state.
//
// Determinism guarantee (DESIGN.md §"Engine"): begin_drain() delivers
// outcomes in submission order, and each round closure only reads its own
// snapshot, so the drained sequence — and therefore any Evidence log built
// from it — is byte-identical for every worker count.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/pvr_speaker.h"

namespace pvr::engine {

struct SchedulerConfig {
  // 0 = std::thread::hardware_concurrency(). The pool is created once in
  // the constructor and joined in the destructor.
  std::size_t workers = 0;
};

// One drained round: the findings plus the identity of the round that
// produced them, in submission order. A round whose closure threw carries
// the exception instead of findings — one failing round never discards the
// results of the others.
struct RoundOutcome {
  core::ProtocolId id;
  core::RoundFindings findings;
  std::exception_ptr error;  // null on success
};

class RoundScheduler {
 public:
  explicit RoundScheduler(SchedulerConfig config = {});
  ~RoundScheduler();

  RoundScheduler(const RoundScheduler&) = delete;
  RoundScheduler& operator=(const RoundScheduler&) = delete;

  // Enqueues one round. Returns the submission ticket (index into the
  // outcome vector begin_drain() delivers). Thread-compatible: submit from
  // one thread.
  std::size_t submit(const core::ProtocolId& id,
                     std::function<core::RoundFindings()> work);

  // Seals the current batch and registers `on_complete` to receive its
  // outcomes, one per ticket in submission order; the scheduler is then
  // reset for the next batch. Round failures never throw: inspect
  // RoundOutcome::error. Non-blocking — if the batch already
  // quiesced the callback runs synchronously on the calling thread;
  // otherwise the WORKER that completes the batch's last task invokes it
  // (with the scheduler lock released), which is where the engine's
  // submission-ordered fold runs off the simulator thread. Until the
  // callback has run, submit() and a second begin_drain() throw
  // std::logic_error: tickets restart at 0 per batch, so interleaving a
  // new submission into an unfinished batch would corrupt the
  // ticket-to-result mapping. At most ONE batch is ever in flight — the
  // two-slot buffer the online runner builds on top (DESIGN.md §12).
  void begin_drain(std::function<void(std::vector<RoundOutcome>)> on_complete);

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

 private:
  struct Task {
    core::ProtocolId id;
    std::function<core::RoundFindings()> work;
  };

  void worker_loop();
  // Runs the next queued task if one is waiting. Returns false when the
  // queue is empty. Caller must hold `mutex_` (released while the task
  // body runs, reacquired before returning).
  bool run_one(std::unique_lock<std::mutex>& lock);
  // Extracts the finished batch's outcomes and resets per-batch state.
  // Caller must hold `mutex_` and have checked completed_ == tasks_.size().
  [[nodiscard]] std::vector<RoundOutcome> take_outcomes_locked();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  bool stopping_ = false;

  std::vector<Task> tasks_;                        // indexed by ticket
  std::vector<std::optional<RoundOutcome>> results_;
  std::size_t next_ticket_ = 0;  // head of the FIFO: lowest unstarted ticket
  std::size_t completed_ = 0;
  // Non-null while an async batch is in flight (begin_drain registered a
  // callback the batch has not yet delivered to).
  std::function<void(std::vector<RoundOutcome>)> async_callback_;

  std::vector<std::thread> workers_;
};

}  // namespace pvr::engine
