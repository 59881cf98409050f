// Adversarial-input robustness: every wire decoder in the system must
// either parse or throw std::out_of_range — never crash, hang, or silently
// misparse — when fed Byzantine bytes. This backs the threat model (§3):
// "an unknown subset of the networks ... can behave arbitrarily".
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <new>
#include <ostream>
#include <stdexcept>

#include "baseline/sbgp.h"
#include "bgp/messages.h"
#include "core/bundle_aggregation.h"
#include "core/evidence.h"
#include "core/graph_commitment.h"
#include "core/min_protocol.h"
#include "crypto/drbg.h"
#include "crypto/encoding.h"
#include "net/frame.h"
#include "net/gossip.h"
#include "net/message_trace.h"
#include "obs/metrics.h"
#include "scenario/multiprocess.h"

namespace pvr {
namespace {

// Applies `decode` to random buffers and truncated/bit-flipped versions of
// `valid`; the only acceptable outcomes are success or std::out_of_range.
template <typename DecodeFn>
void expect_robust(DecodeFn decode, const std::vector<std::uint8_t>& valid,
                   crypto::Drbg& rng) {
  // 1. Pure random buffers of assorted sizes.
  for (const std::size_t size : {0u, 1u, 3u, 16u, 64u, 300u}) {
    const auto junk = rng.bytes(size);
    try {
      decode(junk);
    } catch (const std::out_of_range&) {
    }
  }
  // 2. Every truncation of a valid message.
  for (std::size_t cut = 0; cut < valid.size(); cut += 1 + valid.size() / 37) {
    std::vector<std::uint8_t> truncated(valid.begin(),
                                        valid.begin() + static_cast<std::ptrdiff_t>(cut));
    try {
      decode(truncated);
    } catch (const std::out_of_range&) {
    }
  }
  // 3. Single-byte corruptions of a valid message.
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::uint8_t> corrupted = valid;
    if (corrupted.empty()) break;
    corrupted[rng.uniform(corrupted.size())] ^=
        static_cast<std::uint8_t>(1 + rng.uniform(255));
    try {
      decode(corrupted);
    } catch (const std::out_of_range&) {
    }
  }
}

[[nodiscard]] bgp::Route sample_route() {
  return bgp::Route{.prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24"),
                    .path = bgp::AsPath{2, 1},
                    .next_hop = 2,
                    .local_pref = 100,
                    .med = 5,
                    .origin = bgp::Origin::kEgp,
                    .communities = {bgp::make_community(65000, 1)}};
}

[[nodiscard]] core::ProtocolId sample_id() {
  return {.prover = 7,
          .prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24"),
          .epoch = 3};
}

TEST(DecoderRobustness, BgpUpdate) {
  crypto::Drbg rng(1, "fuzz-bgp");
  const bgp::BgpUpdate update{.withdraw = false,
                              .prefix = sample_route().prefix,
                              .route = sample_route()};
  expect_robust([](const auto& b) { (void)bgp::BgpUpdate::decode(b); },
                update.encode(), rng);
}

TEST(DecoderRobustness, SignedMessage) {
  crypto::Drbg rng(2, "fuzz-signed");
  const core::SignedMessage message{.signer = 9,
                                    .payload = {1, 2, 3},
                                    .signature = rng.bytes(64)};
  expect_robust([](const auto& b) { (void)core::SignedMessage::decode(b); },
                message.encode(), rng);
}

TEST(DecoderRobustness, InputAnnouncement) {
  crypto::Drbg rng(3, "fuzz-input");
  const core::InputAnnouncement announcement{
      .id = sample_id(), .provider = 11, .route = sample_route()};
  expect_robust([](const auto& b) { (void)core::InputAnnouncement::decode(b); },
                announcement.encode(), rng);
}

TEST(DecoderRobustness, CommitmentBundle) {
  crypto::Drbg rng(4, "fuzz-bundle");
  core::CommitmentBundle bundle{
      .id = sample_id(), .op = core::OperatorKind::kMinimum, .max_len = 4,
      .bits = {}};
  for (int i = 0; i < 4; ++i) {
    bundle.bits.push_back(crypto::commit_bit(i % 2 == 0, rng).first);
  }
  expect_robust([](const auto& b) { (void)core::CommitmentBundle::decode(b); },
                bundle.encode(), rng);
}

TEST(DecoderRobustness, Reveals) {
  crypto::Drbg rng(5, "fuzz-reveals");
  const auto [commitment, opening] = crypto::commit_bit(true, rng);
  const core::RevealToProvider to_provider{
      .id = sample_id(), .provider = 11, .bit_index = 1, .opening = opening};
  expect_robust([](const auto& b) { (void)core::RevealToProvider::decode(b); },
                to_provider.encode(), rng);

  const core::RevealToRecipient to_recipient{.id = sample_id(),
                                             .openings = {opening, opening}};
  expect_robust([](const auto& b) { (void)core::RevealToRecipient::decode(b); },
                to_recipient.encode(), rng);
}

TEST(DecoderRobustness, ExportStatement) {
  crypto::Drbg rng(6, "fuzz-export");
  core::ExportStatement statement{.id = sample_id(),
                                  .has_route = true,
                                  .route = sample_route(),
                                  .provenance = core::SignedMessage{
                                      .signer = 2,
                                      .payload = {9, 9},
                                      .signature = rng.bytes(64)}};
  expect_robust([](const auto& b) { (void)core::ExportStatement::decode(b); },
                statement.encode(), rng);
}

TEST(DecoderRobustness, GraphRootAnnouncement) {
  crypto::Drbg rng(7, "fuzz-root");
  const core::GraphRootAnnouncement announcement{
      .id = sample_id(), .root = crypto::sha256("root")};
  expect_robust(
      [](const auto& b) { (void)core::GraphRootAnnouncement::decode(b); },
      announcement.encode(), rng);
}

TEST(DecoderRobustness, SbgpAttestation) {
  crypto::Drbg rng(8, "fuzz-sbgp");
  const baseline::Attestation attestation{
      .prefix = sample_route().prefix, .signer = 1, .to = 2, .suffix = {1}};
  expect_robust([](const auto& b) { (void)baseline::Attestation::decode(b); },
                attestation.encode(), rng);
}

TEST(DecoderRobustness, GossipAnnouncement) {
  crypto::Drbg rng(9, "fuzz-gossip");
  expect_robust([](const auto& b) { (void)net::decode_gossip(b); },
                net::encode_gossip("topic", {1, 2, 3}), rng);
}

// The verifier entry points must likewise survive adversarial envelopes:
// random bytes in place of every protocol message yield (at most) findings,
// never crashes.
TEST(DecoderRobustness, VerifiersSurviveGarbageEnvelopes) {
  crypto::Drbg key_rng(10, "fuzz-verifier-keys");
  const core::AsKeyPairs keys = core::generate_keys({1, 2, 11}, key_rng, 512);
  crypto::Drbg rng(11, "fuzz-verifier");

  for (int trial = 0; trial < 20; ++trial) {
    const core::SignedMessage garbage{
        .signer = 1,
        .payload = rng.bytes(rng.uniform(200)),
        .signature = rng.bytes(64),
    };
    const auto provider_findings = core::verify_as_provider(
        keys.directory, 11,
        core::InputAnnouncement{.id = sample_id(), .provider = 11,
                                .route = sample_route()},
        garbage, &garbage);
    EXPECT_FALSE(provider_findings.empty());  // at least bad-signature
    const auto recipient_findings = core::verify_as_recipient(
        keys.directory, 2, garbage, &garbage, &garbage);
    EXPECT_FALSE(recipient_findings.empty());
    EXPECT_FALSE(core::check_equivocation(keys.directory, 11, garbage, garbage)
                     .has_value());
  }
}

// ---------------------------------------------------------------------------
// Length fields cannot force allocations: a count read from the input is
// checked against the bytes that remain before anything is reserved.
// ---------------------------------------------------------------------------

// ASan and TSan reserve terabytes of shadow memory and cannot run under an
// address-space cap.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kAddressSpaceCapUsable = false;
#else
constexpr bool kAddressSpaceCapUsable = true;
#endif

enum class CappedOutcome { kOutOfRange, kDecoded, kBadAlloc, kOther, kCrashed };

std::ostream& operator<<(std::ostream& out, CappedOutcome outcome) {
  constexpr const char* kNames[] = {"std::out_of_range", "decoded",
                                    "std::bad_alloc", "another exception",
                                    "crashed"};
  return out << kNames[static_cast<int>(outcome)];
}

// Runs `decode` in a forked child whose address space may grow by at most
// 1 GiB, and reports how it ended.
[[nodiscard]] CappedOutcome decode_under_cap(const std::function<void()>& decode) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::size_t pages = 0;
    if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
      if (std::fscanf(statm, "%zu", &pages) != 1) pages = 0;
      std::fclose(statm);
    }
    const rlim_t cap = static_cast<rlim_t>(pages) *
                           static_cast<rlim_t>(::sysconf(_SC_PAGESIZE)) +
                       (rlim_t{1} << 30);
    const rlimit limit{.rlim_cur = cap, .rlim_max = cap};
    if (::setrlimit(RLIMIT_AS, &limit) != 0) ::_exit(99);
    CappedOutcome outcome = CappedOutcome::kDecoded;
    try {
      decode();
    } catch (const std::out_of_range&) {
      outcome = CappedOutcome::kOutOfRange;
    } catch (const std::bad_alloc&) {
      outcome = CappedOutcome::kBadAlloc;
    } catch (...) {
      outcome = CappedOutcome::kOther;
    }
    ::_exit(static_cast<int>(outcome));
  }
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) {
    return CappedOutcome::kCrashed;
  }
  const int code = WEXITSTATUS(status);
  return code <= static_cast<int>(CappedOutcome::kOther)
             ? static_cast<CappedOutcome>(code)
             : CappedOutcome::kCrashed;
}

TEST(DecoderAllocationTest, MessageBodyLengthCannotForceAllocation) {
  if (!kAddressSpaceCapUsable) GTEST_SKIP() << "sanitizer build";
  // Addressing, an empty channel, then a payload length of ~4 GiB.
  const std::vector<std::uint8_t> body = {0, 0, 0, 0, 0, 0, 0, 0, 0,
                                          0, 0xFF, 0xFF, 0xFF, 0xF0};
  EXPECT_EQ(decode_under_cap([&] { (void)net::decode_message_body(body); }),
            CappedOutcome::kOutOfRange);
}

TEST(DecoderAllocationTest, MetricsSnapshotCountsCannotForceAllocation) {
  if (!kAddressSpaceCapUsable) GTEST_SKIP() << "sanitizer build";
  // Wire version 1, then 2^32 - 1 scalars.
  const std::vector<std::uint8_t> scalars = {0, 1, 0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_EQ(
      decode_under_cap([&] { (void)obs::MetricsSnapshot::decode(scalars); }),
      CappedOutcome::kOutOfRange);
  // No scalars, then 2^32 - 1 histograms.
  const std::vector<std::uint8_t> histograms = {0, 1, 0,    0,    0,   0,
                                                0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_EQ(decode_under_cap(
                [&] { (void)obs::MetricsSnapshot::decode(histograms); }),
            CappedOutcome::kOutOfRange);
}

TEST(DecoderAllocationTest, MessageTraceCountsCannotForceAllocation) {
  if (!kAddressSpaceCapUsable) GTEST_SKIP() << "sanitizer build";
  // A valid empty trace's header, then a huge entry count; and a valid
  // empty trace whose prover count, or window-close count, is replaced by
  // a huge one.
  const std::vector<std::uint8_t> empty = net::MessageTrace{}.encode();
  const std::size_t header = 4 + 4 + 4 + 8 + 4;  // magic, version, "", seed, ""
  std::vector<std::uint8_t> entries(empty.begin(),
                                    empty.begin() + static_cast<std::ptrdiff_t>(header));
  for (const std::uint8_t byte : {0, 0, 0, 1, 0, 0, 0, 0}) {
    entries.push_back(byte);  // 2^32 entries
  }
  EXPECT_EQ(decode_under_cap([&] { (void)net::MessageTrace::decode(entries); }),
            CappedOutcome::kOutOfRange);

  std::vector<std::uint8_t> provers = empty;
  ASSERT_GE(provers.size(), 16u);
  provers[provers.size() - 13] = 1;  // prover count (next-to-last u64) = 2^32
  EXPECT_EQ(decode_under_cap([&] { (void)net::MessageTrace::decode(provers); }),
            CappedOutcome::kOutOfRange);

  std::vector<std::uint8_t> closes = empty;
  closes[closes.size() - 5] = 1;  // window-close count (last u64) = 2^32
  EXPECT_EQ(decode_under_cap([&] { (void)net::MessageTrace::decode(closes); }),
            CappedOutcome::kOutOfRange);
}

TEST(DecoderAllocationTest, LockstepDoneCountsCannotForceAllocation) {
  if (!kAddressSpaceCapUsable) GTEST_SKIP() << "sanitizer build";
  // A kFrameDone body claiming 2^32 - 1 actions and holding none; and one
  // with no actions claiming 2^40 window closes.
  const std::vector<std::uint8_t> actions = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_EQ(decode_under_cap(
                [&] { (void)scenario::decode_grant_done(actions); }),
            CappedOutcome::kOutOfRange);
  const std::vector<std::uint8_t> closes = {0, 0, 0, 0, 0, 0, 1, 0,
                                            0, 0, 0, 0};
  EXPECT_EQ(decode_under_cap(
                [&] { (void)scenario::decode_grant_done(closes); }),
            CappedOutcome::kOutOfRange);

  // An honest reply round-trips; an unknown action kind is rejected.
  scenario::GrantDone done;
  done.actions.push_back(scenario::GrantDone::Action{
      .is_send = false, .at = 4000, .timer_id = 9});
  done.closes.push_back(net::TraceClose{.at = 4000,
                                        .prover = 7,
                                        .epoch = 3,
                                        .prefix_address = 0x0A000000,
                                        .prefix_length = 8});
  std::vector<std::uint8_t> body = scenario::encode_grant_done(done);
  const scenario::GrantDone decoded = scenario::decode_grant_done(body);
  ASSERT_EQ(decoded.actions.size(), 1u);
  EXPECT_EQ(decoded.actions[0].timer_id, 9u);
  ASSERT_EQ(decoded.closes.size(), 1u);
  EXPECT_EQ(decoded.closes[0].prover, 7u);
  EXPECT_EQ(decoded.closes[0].prefix_length, 8u);
  body[4] = 9;  // the action's kind byte
  EXPECT_THROW((void)scenario::decode_grant_done(body), std::invalid_argument);
}

TEST(DecoderAllocationTest, LockstepFinishLogCountCannotForceAllocation) {
  if (!kAddressSpaceCapUsable) GTEST_SKIP() << "sanitizer build";
  // A kFrameFinish body claiming 2^40 window closes and holding none.
  const std::vector<std::uint8_t> count_only = {0, 0, 1, 0, 0, 0, 0, 0};
  EXPECT_EQ(decode_under_cap([&] {
              (void)scenario::decode_finish_log(count_only);
            }),
            CappedOutcome::kOutOfRange);
  // A one-entry log with a trailing byte is not a finish body.
  crypto::ByteWriter writer;
  const std::vector<net::TraceClose> log = {net::TraceClose{
      .at = 5, .prover = 7, .epoch = 1, .prefix_address = 0,
      .prefix_length = 0}};
  net::encode_closes(writer, log);
  std::vector<std::uint8_t> body = writer.take();
  ASSERT_EQ(scenario::decode_finish_log(body).size(), 1u);
  body.push_back(0);
  EXPECT_THROW((void)scenario::decode_finish_log(body), std::invalid_argument);
}

TEST(DecoderAllocationTest, AggregatedBundlePrefixCountCannotForceAllocation) {
  if (!kAddressSpaceCapUsable) GTEST_SKIP() << "sanitizer build";
  // Tag, prover, epoch, batch, then 2^32 - 1 prefixes and nothing else.
  crypto::ByteWriter writer;
  writer.put_string("pvr-aggregated-bundle");
  writer.put_u32(7);
  writer.put_u64(3);
  writer.put_u32(0);
  writer.put_u32(0xFFFFFFFF);
  const std::vector<std::uint8_t> bytes = writer.take();
  EXPECT_EQ(
      decode_under_cap([&] { (void)core::AggregatedBundle::decode(bytes); }),
      CappedOutcome::kOutOfRange);
}

TEST(DecoderAllocationTest, AggregatedMessageOpeningCountCannotForceAllocation) {
  if (!kAddressSpaceCapUsable) GTEST_SKIP() << "sanitizer build";
  // Tag, an empty signed root, then 2^32 - 1 openings and nothing else.
  crypto::ByteWriter writer;
  writer.put_string("pvr.bundle.agg");
  writer.put_bytes(core::SignedMessage{}.encode());
  writer.put_u32(0xFFFFFFFF);
  const std::vector<std::uint8_t> bytes = writer.take();
  EXPECT_EQ(decode_under_cap([&] {
              (void)core::AggregatedBundleMessage::decode(bytes);
            }),
            CappedOutcome::kOutOfRange);
}

TEST(DecoderAllocationTest, EvidenceMessageCountCannotForceAllocation) {
  if (!kAddressSpaceCapUsable) GTEST_SKIP() << "sanitizer build";
  // Kind, accused, reporter, index, then 2^32 - 1 messages and no detail.
  crypto::ByteWriter writer;
  writer.put_u8(0);
  writer.put_u32(1);
  writer.put_u32(2);
  writer.put_u32(0);
  writer.put_u32(0xFFFFFFFF);
  const std::vector<std::uint8_t> bytes = writer.take();
  EXPECT_EQ(decode_under_cap([&] { (void)core::Evidence::decode(bytes); }),
            CappedOutcome::kOutOfRange);
}

}  // namespace
}  // namespace pvr
