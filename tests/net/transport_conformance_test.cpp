// Backend conformance: the behavioral guarantees transport.h documents,
// held against the deterministic simulator backend through a small
// pair-world harness (two nodes, one link): per-pair FIFO, payload
// fidelity incl. >64 KiB chunked payloads, no-link errors, interceptor
// drop/delay semantics, stats counting rules, and trace recording. The
// replay and lockstep backends are held to the simulator's fingerprint by
// the trace-replay and multiprocess parity gates instead.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/message_trace.h"
#include "net/simulator.h"

namespace pvr::net {
namespace {

constexpr NodeId kA = 1;
constexpr NodeId kB = 2;

struct Recorder final : Node {
  std::vector<Message> received;
  void on_message(Transport& transport, const Message& message) override {
    (void)transport;
    received.push_back(message);
  }
};

// One two-node world. at(id) is the Transport the node's sends are issued
// on.
class PairWorld {
 public:
  PairWorld() : sim_(7) {
    auto a = std::make_unique<Recorder>();
    auto b = std::make_unique<Recorder>();
    a_ = a.get();
    b_ = b.get();
    sim_.add_node(kA, std::move(a));
    sim_.add_node(kB, std::move(b));
    sim_.connect(kA, kB, LinkConfig{.latency = 100});
  }
  Transport& at(NodeId id) {
    (void)id;
    return sim_.transport();
  }
  Recorder& recorder(NodeId id) { return id == kA ? *a_ : *b_; }
  // Runs the backend to quiescence, then reports whether `done` holds.
  bool pump_until(const std::function<bool()>& done) {
    sim_.run();
    return done();
  }
  // Severs the A—B link.
  void disconnect_pair() { sim_.disconnect(kA, kB); }
  void set_trace(MessageTrace* trace) { sim_.set_trace(trace); }

 private:
  Simulator sim_;
  Recorder* a_ = nullptr;
  Recorder* b_ = nullptr;
};

[[nodiscard]] std::unique_ptr<PairWorld> make_world(
    const std::string& backend) {
  if (backend != "sim") throw std::invalid_argument("unknown backend");
  return std::make_unique<PairWorld>();
}

[[nodiscard]] std::vector<std::uint8_t> patterned_payload(std::size_t size,
                                                          std::uint8_t tag) {
  std::vector<std::uint8_t> payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<std::uint8_t>((i * 31 + tag) & 0xFF);
  }
  return payload;
}

class TransportConformanceTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(TransportConformanceTest, FramingRoundTripsEverySizeClassInOrder) {
  const auto world = make_world(GetParam());
  // Empty, tiny, exactly one chunk, one byte either side of the chunk
  // boundary, and a 3-chunk payload larger than any aggregation window.
  const std::vector<std::size_t> sizes = {0,          1,         1000,
                                          64 * 1024 - 1, 64 * 1024,
                                          64 * 1024 + 1, 200'000};
  std::uint64_t expected_bytes = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    Message message{.from = kA,
                    .to = kB,
                    .channel = "t.payload",
                    .payload = patterned_payload(sizes[i],
                                                 static_cast<std::uint8_t>(i))};
    expected_bytes += message.wire_size();
    world->at(kA).send(std::move(message));
  }
  ASSERT_TRUE(world->pump_until([&] {
    return world->recorder(kB).received.size() == sizes.size();
  }));
  const std::vector<Message>& received = world->recorder(kB).received;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(received[i].from, kA);
    EXPECT_EQ(received[i].channel, "t.payload");
    EXPECT_EQ(received[i].payload,
              patterned_payload(sizes[i], static_cast<std::uint8_t>(i)))
        << "payload size " << sizes[i] << " corrupted in transit";
  }
  // Byte accounting uses wire_size() on every backend, so totals are
  // cross-backend comparable.
  EXPECT_EQ(world->at(kA).stats().bytes_sent, expected_bytes);
  EXPECT_EQ(world->at(kA).stats().messages_sent, sizes.size());
  EXPECT_EQ(world->at(kB).stats().messages_delivered, sizes.size());
}

TEST_P(TransportConformanceTest, PerPairFifoHoldsAcrossChannels) {
  const auto world = make_world(GetParam());
  constexpr std::size_t kCount = 64;
  for (std::size_t i = 0; i < kCount; ++i) {
    world->at(kA).send(Message{
        .from = kA,
        .to = kB,
        .channel = i % 2 == 0 ? "t.even" : "t.odd",
        .payload = {static_cast<std::uint8_t>(i)}});
  }
  ASSERT_TRUE(world->pump_until(
      [&] { return world->recorder(kB).received.size() == kCount; }));
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(world->recorder(kB).received[i].payload[0],
              static_cast<std::uint8_t>(i))
        << "messages reordered within the A->B pair";
  }
}

TEST_P(TransportConformanceTest, SendWithoutLinkThrowsLogicError) {
  const auto world = make_world(GetParam());
  EXPECT_THROW(world->at(kA).send(Message{.from = kA,
                                          .to = 99,
                                          .channel = "t.void",
                                          .payload = {1}}),
               std::logic_error);
}

TEST_P(TransportConformanceTest, InterceptorDropAndDelaySemantics) {
  const auto world = make_world(GetParam());
  world->at(kA).set_interceptor(
      [](Transport& transport, const Message& message) {
        (void)transport;
        InterceptDecision decision;
        if (message.channel == "t.drop") decision.drop = true;
        if (message.channel == "t.delay") decision.extra_delay = 20'000;
        return decision;
      });
  world->at(kA).send(
      Message{.from = kA, .to = kB, .channel = "t.drop", .payload = {1}});
  world->at(kA).send(
      Message{.from = kA, .to = kB, .channel = "t.delay", .payload = {2}});
  world->at(kA).send(
      Message{.from = kA, .to = kB, .channel = "t.plain", .payload = {3}});
  ASSERT_TRUE(world->pump_until(
      [&] { return world->recorder(kB).received.size() == 2; }));
  world->at(kA).set_interceptor(nullptr);

  // The dropped message was counted (sent AND dropped) and never arrived;
  // the delayed one arrived after the undelayed one.
  EXPECT_EQ(world->at(kA).stats().messages_sent, 3u);
  EXPECT_EQ(world->at(kA).stats().messages_dropped, 1u);
  ASSERT_EQ(world->recorder(kB).received.size(), 2u);
  EXPECT_EQ(world->recorder(kB).received[0].channel, "t.plain");
  EXPECT_EQ(world->recorder(kB).received[1].channel, "t.delay");
}

TEST_P(TransportConformanceTest, DisconnectSeversLinkAndFailsFurtherSends) {
  const auto world = make_world(GetParam());
  world->at(kA).send(
      Message{.from = kA, .to = kB, .channel = "t.pre", .payload = {1}});
  ASSERT_TRUE(world->pump_until(
      [&] { return world->recorder(kB).received.size() == 1; }));

  world->disconnect_pair();
  EXPECT_FALSE(world->at(kA).connected(kA, kB));
  EXPECT_FALSE(world->at(kB).connected(kA, kB));
  EXPECT_THROW(world->at(kA).send(Message{.from = kA,
                                          .to = kB,
                                          .channel = "t.post",
                                          .payload = {2}}),
               std::logic_error);
}

TEST_P(TransportConformanceTest, TraceRecordsDeliveriesInOrder) {
  const auto world = make_world(GetParam());
  MessageTrace trace;
  world->set_trace(&trace);
  for (std::uint8_t i = 0; i < 3; ++i) {
    world->at(kA).send(Message{.from = kA,
                               .to = kB,
                               .channel = "t.trace",
                               .payload = {i}});
  }
  ASSERT_TRUE(world->pump_until(
      [&] { return world->recorder(kB).received.size() == 3; }));
  world->set_trace(nullptr);

  ASSERT_EQ(trace.entries.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(trace.entries[i].sequence, i);
    EXPECT_EQ(trace.entries[i].message.payload[0],
              static_cast<std::uint8_t>(i));
    if (i > 0) {
      EXPECT_GE(trace.entries[i].at, trace.entries[i - 1].at)
          << "trace delivery times must be monotone";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformanceTest,
                         ::testing::Values("sim"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace pvr::net
