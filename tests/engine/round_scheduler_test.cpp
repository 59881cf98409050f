#include "engine/round_scheduler.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pvr::engine {
namespace {

[[nodiscard]] core::ProtocolId round_id(std::uint32_t prefix_index,
                                        std::uint64_t epoch) {
  return core::ProtocolId{
      .prover = 1,
      .prefix = bgp::Ipv4Prefix(0x0A000000u + (prefix_index << 8), 24),
      .epoch = epoch};
}

// A fake round that reports which round it was via Evidence.detail.
[[nodiscard]] core::RoundFindings findings_for(std::uint32_t prefix_index,
                                               std::uint64_t epoch) {
  core::RoundFindings findings;
  findings.evidence.push_back(core::Evidence{
      .kind = core::ViolationKind::kEquivocation,
      .accused = 1,
      .reporter = prefix_index,
      .index = static_cast<std::uint32_t>(epoch),
      .messages = {},
      .detail = "round " + std::to_string(prefix_index) + "/" +
                std::to_string(epoch)});
  return findings;
}

// Drained outcome sequence serialized to one string for comparisons.
[[nodiscard]] std::string outcome_trace(const std::vector<RoundOutcome>& outcomes) {
  std::string trace;
  for (const RoundOutcome& outcome : outcomes) {
    trace += std::to_string(outcome.id.epoch) + ":";
    for (const core::Evidence& item : outcome.findings.evidence) {
      trace += item.detail + ";";
    }
    trace += "|";
  }
  return trace;
}

// Seals the submitted batch with begin_drain and waits for its callback,
// which the worker finishing the last task runs (or this thread, when the
// batch already quiesced). Notifies under the lock: the locals die as soon
// as the wait returns.
[[nodiscard]] std::vector<RoundOutcome> drain_batch(RoundScheduler& scheduler) {
  std::mutex mutex;
  std::condition_variable delivered_cv;
  std::optional<std::vector<RoundOutcome>> delivered;
  scheduler.begin_drain([&](std::vector<RoundOutcome> outcomes) {
    const std::lock_guard<std::mutex> lock(mutex);
    delivered = std::move(outcomes);
    delivered_cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mutex);
  delivered_cv.wait(lock, [&] { return delivered.has_value(); });
  return std::move(*delivered);
}

// `hot_key` submits every task under prefix 0 (same closures, only the
// keys differ), the hot-prefix shape a keyed queue would serialize.
[[nodiscard]] std::string run_workload(std::size_t workers,
                                       bool hot_key = false) {
  RoundScheduler scheduler({.workers = workers});
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch) {
    for (std::uint32_t prefix = 0; prefix < 40; ++prefix) {
      scheduler.submit(round_id(hot_key ? 0 : prefix, epoch), [prefix, epoch] {
        return findings_for(prefix, epoch);
      });
    }
  }
  return outcome_trace(drain_batch(scheduler));
}

TEST(RoundSchedulerTest, DrainReturnsSubmissionOrder) {
  RoundScheduler scheduler({.workers = 4});
  for (std::uint64_t epoch = 1; epoch <= 30; ++epoch) {
    scheduler.submit(round_id(epoch % 7, epoch),
                     [epoch] { return findings_for(epoch % 7, epoch); });
  }
  const std::vector<RoundOutcome> outcomes = drain_batch(scheduler);
  ASSERT_EQ(outcomes.size(), 30u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].id.epoch, i + 1);
    ASSERT_EQ(outcomes[i].findings.evidence.size(), 1u);
    EXPECT_EQ(outcomes[i].findings.evidence[0].index, i + 1);
  }
}

// Neither the worker count nor the submission keys change what a drained
// batch delivers.
TEST(RoundSchedulerTest, DeterministicAcrossWorkerCounts) {
  const std::string reference = run_workload(1);
  EXPECT_EQ(run_workload(2), reference);
  EXPECT_EQ(run_workload(4), reference);
  EXPECT_EQ(run_workload(8), reference);
  EXPECT_EQ(run_workload(1, /*hot_key=*/true), reference);
  EXPECT_EQ(run_workload(8, /*hot_key=*/true), reference);
}

// One worker drains the FIFO strictly in ticket order, whatever rounds the
// tickets belong to: distinct ProtocolIds never reorder the queue.
TEST(RoundSchedulerTest, OneWorkerStartsTasksInTicketOrder) {
  RoundScheduler scheduler({.workers = 1});
  std::mutex order_mutex;
  std::vector<std::size_t> started;
  constexpr std::size_t kTasks = 96;
  for (std::size_t i = 0; i < kTasks; ++i) {
    // Distinct prover, prefix and epoch per task.
    const core::ProtocolId id{
        .prover = static_cast<bgp::AsNumber>(1 + i % 5),
        .prefix = bgp::Ipv4Prefix(
            0x0A000000u + (static_cast<std::uint32_t>(i * 37 % kTasks) << 8),
            24),
        .epoch = kTasks - i};
    const std::size_t ticket = scheduler.submit(id, [&, i] {
      const std::lock_guard<std::mutex> lock(order_mutex);
      started.push_back(i);
      return core::RoundFindings{};
    });
    ASSERT_EQ(ticket, i);
  }
  (void)drain_batch(scheduler);
  ASSERT_EQ(started.size(), kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(started[i], i) << "task started out of ticket order";
  }
}

// N tasks of ONE round on N workers must all be running at the same time:
// each blocks at a rendezvous until all N have arrived. A queue that
// serializes same-key tasks would leave the rendezvous short; the wait is
// bounded, so that failure shows up as a failed assertion, not a hang.
TEST(RoundSchedulerTest, SameProtocolIdTasksRunConcurrently) {
  constexpr std::size_t kWorkers = 16;
  constexpr auto kTimeout = std::chrono::seconds(20);
  RoundScheduler scheduler({.workers = kWorkers});
  std::mutex mutex;
  std::condition_variable arrived_cv;
  std::size_t arrived = 0;
  const core::ProtocolId hot = round_id(7, 1);
  for (std::size_t i = 0; i < kWorkers; ++i) {
    scheduler.submit(hot, [&] {
      std::unique_lock<std::mutex> lock(mutex);
      arrived += 1;
      arrived_cv.notify_all();
      const bool met = arrived_cv.wait_for(
          lock, kTimeout, [&] { return arrived == kWorkers; });
      core::RoundFindings findings;
      if (!met) {
        findings.evidence.push_back(core::Evidence{
            .kind = core::ViolationKind::kEquivocation,
            .accused = 1,
            .reporter = 1,
            .index = 0,
            .messages = {},
            .detail = "rendezvous timed out with only " +
                      std::to_string(arrived) + " of " +
                      std::to_string(kWorkers) + " same-round tasks running"});
      }
      return findings;
    });
  }
  const std::vector<RoundOutcome> outcomes = drain_batch(scheduler);
  ASSERT_EQ(outcomes.size(), kWorkers);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_EQ(outcomes[i].error, nullptr);
    for (const core::Evidence& timeout : outcomes[i].findings.evidence) {
      ADD_FAILURE() << "task " << i << ": " << timeout.detail;
    }
  }
}

TEST(RoundSchedulerTest, ExceptionIsolatedToItsRound) {
  RoundScheduler scheduler({.workers = 2});
  scheduler.submit(round_id(0, 1), [] { return findings_for(0, 1); });
  scheduler.submit(round_id(1, 1), []() -> core::RoundFindings {
    throw std::runtime_error("round blew up");
  });
  const std::vector<RoundOutcome> outcomes = drain_batch(scheduler);
  ASSERT_EQ(outcomes.size(), 2u);
  // The healthy round's findings survive; the failed one carries its error.
  EXPECT_EQ(outcomes[0].error, nullptr);
  EXPECT_EQ(outcomes[0].findings.evidence.size(), 1u);
  ASSERT_NE(outcomes[1].error, nullptr);
  EXPECT_THROW(std::rethrow_exception(outcomes[1].error), std::runtime_error);

  // Scheduler must remain usable after a failed batch.
  scheduler.submit(round_id(2, 2), [] { return findings_for(2, 2); });
  const std::vector<RoundOutcome> next = drain_batch(scheduler);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].id.epoch, 2u);
}

}  // namespace
}  // namespace pvr::engine
