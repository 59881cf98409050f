// RSA key generation and PKCS#1 v1.5 signatures (RFC 8017) over SHA-256.
//
// The paper's overhead analysis (§3.8) is phrased in terms of RSA-1024
// signatures (~2 ms on 2011 hardware); route announcements, commitments,
// and evidence objects in this repo are all signed with this module.
// Signing uses the CRT over a per-key precompute (RsaCrtContext: Montgomery
// contexts for p and q, built once at key generation); verification uses
// the public exponent directly, over a per-key context as well
// (RsaVerifyKey). PKCS#1 v1.5 is deterministic, so neither precompute can
// change a signature or a verdict — only the time they take.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "crypto/bignum.h"
#include "crypto/drbg.h"
#include "crypto/montgomery.h"
#include "crypto/sha256.h"

namespace pvr::crypto {

struct RsaPublicKey {
  Bignum n;  // modulus
  Bignum e;  // public exponent

  [[nodiscard]] std::size_t modulus_bytes() const {
    return (n.bit_length() + 7) / 8;
  }
  [[nodiscard]] bool operator==(const RsaPublicKey&) const = default;

  // Canonical encoding (for hashing into node identities and gossip).
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static RsaPublicKey decode(std::span<const std::uint8_t> data);
};

class RsaCrtContext;

struct RsaPrivateKey {
  Bignum n;
  Bignum e;
  Bignum d;
  // CRT components.
  Bignum p;
  Bignum q;
  Bignum d_p;    // d mod (p-1)
  Bignum d_q;    // d mod (q-1)
  Bignum q_inv;  // q^{-1} mod p
  // The signing precompute over p, q, d_p, d_q and q_inv, built by
  // generate_rsa_keypair and shared by every copy of the key. A key
  // assembled field by field leaves it empty; signing then builds one per
  // call, with the same result.
  std::shared_ptr<const RsaCrtContext> crt;

  [[nodiscard]] RsaPublicKey public_key() const { return {.n = n, .e = e}; }
};

// The signing counterpart of RsaVerifyKey: Montgomery contexts for p and q
// and q^{-1} mod p, built once per key rather than once per signature.
// Immutable after construction, so one instance serves every thread.
class RsaCrtContext {
 public:
  // Throws std::invalid_argument unless p and q are odd and > 1.
  explicit RsaCrtContext(const RsaPrivateKey& key);

  // y^d mod n: one fixed-width Montgomery exponentiation per prime, then
  // Garner's recombination m2 + q * (q^{-1} * (m1 - m2) mod p), reduced in
  // p's Montgomery form. Equals the textbook CRT result for every y.
  [[nodiscard]] Bignum apply(const Bignum& y) const;

 private:
  MontgomeryCtx p_;
  MontgomeryCtx q_;
  Bignum d_p_;
  Bignum d_q_;
  std::vector<std::uint64_t> q_inv_;  // q^{-1} mod p, p_.width() limbs
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

// Miller–Rabin with `rounds` random bases (error < 4^-rounds).
[[nodiscard]] bool is_probable_prime(const Bignum& n, Drbg& rng, int rounds = 24);

// Generates a random prime with exactly `bits` bits (top two bits set, so
// products of two such primes have exactly 2*bits bits).
[[nodiscard]] Bignum generate_prime(std::size_t bits, Drbg& rng);

// Generates an RSA key pair with a modulus of `modulus_bits` bits, e = 65537.
[[nodiscard]] RsaKeyPair generate_rsa_keypair(std::size_t modulus_bits, Drbg& rng);

// PKCS#1 v1.5 signature over SHA-256(message), through the key's CRT
// precompute (RsaPrivateKey::crt). The result has exactly modulus_bytes()
// bytes.
[[nodiscard]] std::vector<std::uint8_t> rsa_sign(
    const RsaPrivateKey& key, std::span<const std::uint8_t> message);

// Every verifier in this repo (rsa_verify, RsaVerifyKey, and
// core::VerifyContext above them) checks each signature with its own
// e-exponentiation. A batched accept is deliberately absent: the
// Bellare–Garay–Rabin small-exponents product test is only sound in
// prime-order groups, and Z_n* is not one — Boyd–Pavlovski-style forgeries
// (e.g. s' = n - s, or factors of small odd order dividing lambda(n)) pass
// the product equation with non-negligible probability, which would make a
// batched verdict diverge from rsa_verify under adversarial input. For the
// e = 65537 keys used throughout this repo the per-signature check is also
// the cheapest option.
[[nodiscard]] bool rsa_verify(const RsaPublicKey& key,
                              std::span<const std::uint8_t> message,
                              std::span<const std::uint8_t> signature);

// Raw RSA trapdoor permutation (used by the ring-signature scheme).
// rsa_private_apply is the signing exponentiation: the key's RsaCrtContext.
[[nodiscard]] Bignum rsa_public_apply(const RsaPublicKey& key, const Bignum& x);
[[nodiscard]] Bignum rsa_private_apply(const RsaPrivateKey& key, const Bignum& y);

// A public key with its Montgomery context built once and reused across
// every verification — the per-key precompute that rsa_verify otherwise
// redoes per call (one R^2 division each time). Thread-safe after
// construction: all members are immutable and verify() is const with no
// internal state. core::VerifyContext owns one of these per directory key.
//
// verify() returns EXACTLY what rsa_verify returns for every input; the
// two-step prepare()/finish() split exists so a verdict cache can sit
// between the cheap structural/encoding work and the expensive
// exponentiation without changing any verdict.
class RsaVerifyKey {
 public:
  explicit RsaVerifyKey(RsaPublicKey key);

  [[nodiscard]] const RsaPublicKey& key() const noexcept { return key_; }

  // Structural screening + EMSA-PKCS1-v1_5 encoding. nullopt means the
  // signature cannot possibly verify (wrong length, s >= n, modulus too
  // small) — the exact inputs rsa_verify rejects before exponentiating.
  struct Prepared {
    Bignum s;        // the signature as an integer, < n
    Bignum encoded;  // the expected EMSA-PKCS1-v1_5 encoding of message
  };
  [[nodiscard]] std::optional<Prepared> prepare(
      std::span<const std::uint8_t> message,
      std::span<const std::uint8_t> signature) const;

  // The e-exponentiation and comparison (counts crypto.rsa_verifies).
  [[nodiscard]] bool finish(const Prepared& prepared) const;

  [[nodiscard]] bool verify(std::span<const std::uint8_t> message,
                            std::span<const std::uint8_t> signature) const;

  // s^e mod n through the shared Montgomery context.
  [[nodiscard]] Bignum public_apply(const Bignum& x) const;

 private:
  RsaPublicKey key_;
  std::optional<MontgomeryCtx> mont_;  // absent for even/oversized moduli
};

}  // namespace pvr::crypto
