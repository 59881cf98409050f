#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace pvr::crypto {
namespace {

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(digest_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(digest_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(digest_hex(hasher.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string message =
      "The quick brown fox jumps over the lazy dog and keeps running";
  for (std::size_t split = 0; split <= message.size(); ++split) {
    Sha256 hasher;
    hasher.update(std::string_view(message).substr(0, split));
    hasher.update(std::string_view(message).substr(split));
    EXPECT_EQ(hasher.finalize(), sha256(message)) << "split=" << split;
  }
}

TEST(Sha256Test, BoundaryLengthsAroundBlockSize) {
  // Lengths 55, 56, 57, 63, 64, 65 exercise the padding edge cases.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string message(len, 'x');
    Sha256 incremental;
    for (char c : message) incremental.update(std::string_view(&c, 1));
    EXPECT_EQ(incremental.finalize(), sha256(message)) << "len=" << len;
  }
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha256("a"), sha256("b"));
  EXPECT_NE(sha256(""), sha256(std::string(1, '\0')));
}

TEST(Sha256Test, DigestHexLength) {
  EXPECT_EQ(digest_hex(sha256("x")).size(), 64u);
  EXPECT_EQ(digest_bytes(sha256("x")).size(), kSha256DigestSize);
}

// The scalar oracle itself is pinned to the FIPS 180-4 vectors, whatever
// transform the process dispatches to.
TEST(Sha256Test, ScalarOracleKnownAnswers) {
  const auto bytes = [](const char* text) {
    return std::span(reinterpret_cast<const std::uint8_t*>(text),
                     std::strlen(text));
  };
  EXPECT_EQ(digest_hex(sha256_scalar(bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_hex(sha256_scalar(bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Deterministic, non-repeating test bytes.
std::vector<std::uint8_t> pattern(std::size_t length) {
  std::vector<std::uint8_t> out(length);
  for (std::size_t i = 0; i < length; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8) * 7 + 1);
  }
  return out;
}

// The SHA-NI transform against the scalar oracle: every length 0..300 in one
// update, and every two-way update split of every length up to 130 bytes
// (each partial-block, whole-block and multi-block path through update()).
TEST(Sha256Test, ShaNiMatchesScalarOracle) {
  if (std::string_view(sha256_backend()) != "shani") {
    GTEST_SKIP() << "this CPU lacks the SHA extensions; the scalar transform "
                    "is the only one in use";
  }
  const std::vector<std::uint8_t> data = pattern(300);
  const std::span<const std::uint8_t> all(data);
  for (std::size_t length = 0; length <= 300; ++length) {
    ASSERT_EQ(sha256(all.first(length)), sha256_scalar(all.first(length)))
        << "length " << length;
  }
  for (std::size_t length = 0; length <= 130; ++length) {
    const Digest expected = sha256_scalar(all.first(length));
    for (std::size_t split = 0; split <= length; ++split) {
      Sha256 hasher;
      hasher.update(all.first(split));
      hasher.update(all.subspan(split, length - split));
      ASSERT_EQ(hasher.finalize(), expected)
          << "length " << length << " split " << split;
    }
  }
}

// finalize() pads in one update(), and crypto.bytes_hashed (a kSim count)
// must grow by exactly the pad that byte-at-a-time padding counted: 0x80,
// zeros up to 56 mod 64, and the 8-byte length.
TEST(Sha256Test, FinalizeCountsThePadBytes) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "metrics hooks compiled out";
  const obs::Counter& hashed = obs::MetricsRegistry::global().hot.crypto_bytes_hashed;
  const std::vector<std::uint8_t> data = pattern(130);
  for (std::size_t length = 0; length <= 130; ++length) {
    Sha256 hasher;
    hasher.update(std::span(data).first(length));
    const std::uint64_t before = hashed.value();
    (void)hasher.finalize();
    const std::size_t zeros = (55 + 64 - length % 64) % 64;
    EXPECT_EQ(hashed.value() - before, 1 + zeros + 8) << "length " << length;
  }
}

}  // namespace
}  // namespace pvr::crypto
