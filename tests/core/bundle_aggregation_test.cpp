// The pvr.bundle.agg wire format: one signed Merkle root over a window's
// per-prefix signed bundle envelopes, each revealed with an inclusion
// proof (DESIGN.md §8.5).
#include "core/bundle_aggregation.h"

#include <gtest/gtest.h>

#include "crypto/commitment.h"

namespace pvr::core {
namespace {

constexpr bgp::AsNumber kProver = 1;

[[nodiscard]] SignedMessage signed_bundle_for(std::uint32_t prefix_index,
                                              std::uint64_t epoch,
                                              const crypto::RsaPrivateKey& key,
                                              crypto::Drbg& rng) {
  CommitmentBundle bundle;
  bundle.id = ProtocolId{
      .prover = kProver,
      .prefix = bgp::Ipv4Prefix(0x0A000000u + (prefix_index << 8), 24),
      .epoch = epoch};
  bundle.op = OperatorKind::kMinimum;
  bundle.max_len = 4;
  for (std::uint32_t i = 0; i < bundle.max_len; ++i) {
    bundle.bits.push_back(crypto::commit_bit(i >= 1, rng).first);
  }
  return sign_message(kProver, key, bundle.encode());
}

struct AggregatedWorld {
  AsKeyPairs keys;
  AggregatedBundleMessage message;
};

[[nodiscard]] AggregatedWorld make_aggregated(std::size_t prefixes,
                                              std::uint64_t epoch) {
  AggregatedWorld world;
  crypto::Drbg key_rng(11, "agg-test-keys");
  world.keys = generate_keys({kProver, 2}, key_rng, 512);
  const crypto::RsaPrivateKey& key = world.keys.private_keys.at(kProver).priv;
  crypto::Drbg commit_rng(12, "agg-test-commits");
  std::vector<SignedMessage> bundles;
  for (std::uint32_t i = 0; i < prefixes; ++i) {
    bundles.push_back(signed_bundle_for(i, epoch, key, commit_rng));
  }
  world.message = aggregate_signed_bundles(kProver, epoch, /*batch=*/0,
                                           bundles, key);
  return world;
}

// The receiver's full check: the root signature once, then each opening
// against the decoded root by hashes alone.
[[nodiscard]] std::vector<bool> verify_openings(
    const KeyDirectory& directory, const SignedMessage& signed_root,
    const std::vector<SignedBundleOpening>& openings) {
  std::vector<bool> out(openings.size(), false);
  if (!verify_message(directory, signed_root)) return out;
  const AggregatedBundle root = AggregatedBundle::decode(signed_root.payload);
  for (std::size_t i = 0; i < openings.size(); ++i) {
    out[i] = verify_signed_opening(root, openings[i]) &&
             verify_message(directory, openings[i].bundle);
  }
  return out;
}

TEST(AggregatedBundleTest, AllOpeningsVerify) {
  const AggregatedWorld world = make_aggregated(9, 5);
  ASSERT_EQ(world.message.openings.size(), 9u);
  EXPECT_EQ(verify_openings(world.keys.directory, world.message.signed_root,
                            world.message.openings),
            std::vector<bool>(9, true));
  const AggregatedBundle root =
      AggregatedBundle::decode(world.message.signed_root.payload);
  EXPECT_EQ(root.prover, kProver);
  EXPECT_EQ(root.epoch, 5u);
  EXPECT_EQ(root.prefix_count(), 9u);
}

TEST(AggregatedBundleTest, TamperedBundleRejected) {
  const AggregatedWorld world = make_aggregated(4, 1);
  const AggregatedBundle root =
      AggregatedBundle::decode(world.message.signed_root.payload);
  SignedBundleOpening tampered = world.message.openings[2];
  CommitmentBundle bundle = CommitmentBundle::decode(tampered.bundle.payload);
  bundle.max_len += 1;
  tampered.bundle.payload = bundle.encode();
  EXPECT_FALSE(verify_signed_opening(root, tampered));
  // A proof for another leaf does not open this one either.
  SignedBundleOpening swapped = world.message.openings[2];
  swapped.proof = world.message.openings[3].proof;
  EXPECT_FALSE(verify_signed_opening(root, swapped));
}

TEST(AggregatedBundleTest, CrossEpochTransplantRejected) {
  // A valid opening from epoch 1 must not verify against epoch 2's root.
  const AggregatedWorld epoch1 = make_aggregated(4, 1);
  const AggregatedWorld epoch2 = make_aggregated(4, 2);
  const AggregatedBundle root2 =
      AggregatedBundle::decode(epoch2.message.signed_root.payload);
  EXPECT_FALSE(verify_signed_opening(root2, epoch1.message.openings[0]));
}

TEST(AggregatedBundleTest, ForgedRootSignatureRejected) {
  const AggregatedWorld world = make_aggregated(4, 1);
  SignedMessage forged = world.message.signed_root;
  forged.signature[5] ^= 0x10;
  EXPECT_FALSE(verify_message(world.keys.directory, forged));
  EXPECT_EQ(verify_openings(world.keys.directory, forged,
                            world.message.openings),
            std::vector<bool>(4, false));
  // Forged roots never make evidence, even paired with the genuine one.
  EXPECT_FALSE(check_root_equivocation(world.keys.directory, 2,
                                       world.message.signed_root, forged)
                   .has_value());
}

TEST(AggregatedBundleTest, OpeningRoundTripsOnWire) {
  const AggregatedWorld world = make_aggregated(5, 3);
  const AggregatedBundleMessage decoded =
      AggregatedBundleMessage::decode(world.message.encode());
  EXPECT_EQ(decoded.signed_root, world.message.signed_root);
  ASSERT_EQ(decoded.openings.size(), world.message.openings.size());
  for (std::size_t i = 0; i < decoded.openings.size(); ++i) {
    EXPECT_EQ(decoded.openings[i].bundle, world.message.openings[i].bundle);
    EXPECT_EQ(decoded.openings[i].proof, world.message.openings[i].proof);
  }
  EXPECT_EQ(verify_openings(world.keys.directory, decoded.signed_root,
                            decoded.openings),
            std::vector<bool>(5, true));

  const AggregatedBundle root =
      AggregatedBundle::decode(world.message.signed_root.payload);
  const AggregatedBundle root2 = AggregatedBundle::decode(root.encode());
  EXPECT_EQ(root2.prover, root.prover);
  EXPECT_EQ(root2.epoch, root.epoch);
  EXPECT_EQ(root2.batch, root.batch);
  EXPECT_EQ(root2.prefixes, root.prefixes);
  EXPECT_EQ(root2.root, root.root);
}

}  // namespace
}  // namespace pvr::core
