// Montgomery-form modular arithmetic for a fixed odd modulus.
//
// This is the fast kernel behind Bignum::powmod, the per-public-key
// verification contexts (rsa.h RsaVerifyKey, core/verify_context.h) and the
// per-key CRT signing contexts (rsa.h RsaCrtContext): all per-modulus work —
// n' = -n^{-1} mod 2^64, R^2 mod n, the fixed limb width — is done once in
// the constructor, after which every modular multiplication is one CIOS pass
// (Koç–Acar–Kaliski) with no division at all. A full exponentiation
// converts into Montgomery domain once, runs its whole ladder on CIOS
// multiplies, and converts out once.
//
// The CIOS pass has compile-time-width instances for 4, 8 and 16 limbs —
// the 256-bit CRT halves of a 512-bit key, 512-bit verify moduli, and
// 1024-bit keys — chosen by width in mont_mul(); any other width runs the
// same loop with a runtime bound. Exponentiation keeps its window table on
// the stack, so a ladder allocates nothing.
//
// The schoolbook path (Bignum::mulmod / Bignum::powmod_reference) is kept
// as the differential-test reference; tests/crypto/montgomery_test.cpp
// fuzzes the two against each other over random operands and edge moduli,
// at every specialised width and at unspecialised ones.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/bignum.h"

namespace pvr::crypto {

// Widest modulus the stack-buffer CIOS kernel accepts: 64 limbs = 4096
// bits, comfortably past any RSA modulus this repo generates. Callers
// (Bignum::powmod) fall back to the schoolbook ladder beyond it.
inline constexpr std::size_t kMaxMontgomeryLimbs = 64;

class MontgomeryCtx {
 public:
  // Precomputes n', R^2 mod m, and the fixed limb width. Throws
  // std::invalid_argument unless m is odd, > 1, and at most
  // kMaxMontgomeryLimbs limbs wide.
  explicit MontgomeryCtx(const Bignum& m);

  [[nodiscard]] const Bignum& modulus() const noexcept { return m_; }
  [[nodiscard]] std::size_t width() const noexcept { return n_.size(); }

  // (a * b) mod m via to-Montgomery / CIOS / from-Montgomery. Exposed for
  // the differential tests; powmod() stays in Montgomery domain throughout
  // and does NOT route through this.
  [[nodiscard]] Bignum mulmod(const Bignum& a, const Bignum& b) const;

  // (base ^ exponent) mod m. One conversion in, one conversion out, every
  // ladder step a CIOS multiply. Small exponents (e.g. the RSA verify
  // e = 65537) take a plain square-and-multiply ladder; larger ones a
  // 4-bit fixed window. Matches Bignum::powmod_reference bit for bit.
  [[nodiscard]] Bignum powmod(const Bignum& base, const Bignum& exponent) const;

  // ---- Fixed-width form ----------------------------------------------------
  // The limb-level steps powmod() is built from, for callers that keep their
  // operands in Montgomery form across several steps (the CRT signer). Each
  // pointer is width() little-endian limbs holding a value < m, and `out`
  // may alias any input.

  // out = x * R mod m: x into Montgomery form, for x of any length.
  void to_mont(std::span<const std::uint64_t> x, std::uint64_t* out) const;
  // out = x * R^{-1} mod m: x out of Montgomery form.
  void from_mont(const std::uint64_t* x, std::uint64_t* out) const;
  // out = a * b * R^{-1} mod m, one CIOS pass. With one operand in
  // Montgomery form and the other plain, the product comes out plain.
  void mont_mul(const std::uint64_t* a, const std::uint64_t* b,
                std::uint64_t* out) const;
  // out = base ^ exponent, base and out in Montgomery form.
  void mont_pow(const std::uint64_t* base, const Bignum& exponent,
                std::uint64_t* out) const;
  // out = (a - b) mod m.
  void sub_mod(const std::uint64_t* a, const std::uint64_t* b,
               std::uint64_t* out) const;

 private:
  Bignum m_;
  std::vector<std::uint64_t> n_;   // modulus limbs, fixed width
  std::vector<std::uint64_t> rr_;  // R^2 mod m, R = 2^(64*width)
  std::uint64_t n0inv_ = 0;        // -m^{-1} mod 2^64
};

}  // namespace pvr::crypto
