// Differential tests for the CIOS Montgomery kernel against the schoolbook
// Bignum reference (mulmod / powmod_reference). The two paths share no
// arithmetic beyond Bignum's add/sub/mul/div primitives, so agreement over
// seeded random operands and the edge moduli below is strong evidence the
// kernel is right (the RSA known-answer vectors in rsa_test.cpp pin it to
// an outside implementation on top).
#include "crypto/montgomery.h"

#include <gtest/gtest.h>

#include <vector>

#include "crypto/bignum.h"
#include "crypto/drbg.h"

namespace pvr::crypto {
namespace {

// Odd moduli that stress the kernel's boundaries: minimal width, all-ones
// limbs (carry chains), Mersenne shapes, and multi-limb RSA-ish widths.
std::vector<Bignum> edge_moduli() {
  std::vector<Bignum> moduli;
  moduli.push_back(Bignum(3));
  moduli.push_back(Bignum(0xf3));
  moduli.push_back(Bignum(0xffffffffffffffffULL));          // 2^64 - 1
  moduli.push_back((Bignum(1) << 64) + Bignum(1));          // 2^64 + 1
  moduli.push_back((Bignum(1) << 127) - Bignum(1));         // Mersenne prime
  moduli.push_back((Bignum(1) << 521) - Bignum(1));         // Mersenne prime
  moduli.push_back(((Bignum(1) << 192) - Bignum(1)) - Bignum(0x1e));
  return moduli;
}

TEST(MontgomeryTest, RejectsEvenTinyAndOversizedModuli) {
  EXPECT_THROW(MontgomeryCtx(Bignum(0)), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(Bignum(1)), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(Bignum(4096)), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(Bignum(10) << 512), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(Bignum(1) << (64 * kMaxMontgomeryLimbs)),
               std::invalid_argument);
  // The widest accepted modulus: exactly kMaxMontgomeryLimbs limbs.
  EXPECT_NO_THROW(MontgomeryCtx((Bignum(1) << (64 * kMaxMontgomeryLimbs)) -
                                Bignum(1)));
}

TEST(MontgomeryTest, MulmodMatchesSchoolbookOnEdgeCases) {
  for (const Bignum& m : edge_moduli()) {
    const MontgomeryCtx ctx(m);
    const Bignum m_minus_1 = m - Bignum(1);
    const std::vector<Bignum> operands = {
        Bignum(0), Bignum(1), Bignum(2),      m_minus_1,
        m,         m + m,     m_minus_1 + m,  // >= m: reduced on entry
    };
    for (const Bignum& a : operands) {
      for (const Bignum& b : operands) {
        EXPECT_EQ(ctx.mulmod(a, b), a.mulmod(b, m))
            << "m=" << m.to_hex() << " a=" << a.to_hex()
            << " b=" << b.to_hex();
      }
    }
  }
}

TEST(MontgomeryTest, MulmodMatchesSchoolbookOnRandomOperands) {
  Drbg rng(7101, "montgomery-mulmod-fuzz");
  for (int round = 0; round < 200; ++round) {
    // Random odd modulus, 1..16 limbs wide.
    const std::size_t bits = 2 + rng.uniform(1023);
    Bignum m = rng.random_bits(bits);
    if (!m.is_odd()) m = m + Bignum(1);
    if (m.is_one()) m = Bignum(3);
    const MontgomeryCtx ctx(m);
    const Bignum a = rng.random_below(m);
    const Bignum b = rng.random_below(m);
    ASSERT_EQ(ctx.mulmod(a, b), a.mulmod(b, m))
        << "m=" << m.to_hex() << " a=" << a.to_hex() << " b=" << b.to_hex();
  }
}

TEST(MontgomeryTest, PowmodMatchesReferenceOnRandomOperands) {
  Drbg rng(7102, "montgomery-powmod-fuzz");
  for (int round = 0; round < 60; ++round) {
    const std::size_t bits = 2 + rng.uniform(511);
    Bignum m = rng.random_bits(bits);
    if (!m.is_odd()) m = m + Bignum(1);
    if (m.is_one()) m = Bignum(3);
    const MontgomeryCtx ctx(m);
    const Bignum base = rng.random_below(m + m);  // may exceed m
    const Bignum exponent = rng.random_bits(1 + rng.uniform(256));
    ASSERT_EQ(ctx.powmod(base, exponent), base.powmod_reference(exponent, m))
        << "m=" << m.to_hex() << " base=" << base.to_hex()
        << " e=" << exponent.to_hex();
  }
}

TEST(MontgomeryTest, PowmodEdgeExponents) {
  for (const Bignum& m : edge_moduli()) {
    const MontgomeryCtx ctx(m);
    const Bignum base = m - Bignum(2) < Bignum(1) ? Bignum(1) : m - Bignum(2);
    // e = 0 -> 1 (m > 1 always here), e = 1 -> base mod m.
    EXPECT_EQ(ctx.powmod(base, Bignum(0)), Bignum(1));
    EXPECT_EQ(ctx.powmod(base, Bignum(1)), base.mulmod(Bignum(1), m));
    EXPECT_EQ(ctx.powmod(Bignum(0), Bignum(5)), Bignum(0));
    EXPECT_EQ(ctx.powmod(Bignum(1), Bignum(1) << 200),
              Bignum(1).mulmod(Bignum(1), m));
    // The RSA verify exponent (33 bits of schedule: 16 squares + 1 mul)
    // and a just-past-the-ladder-cutoff exponent.
    EXPECT_EQ(ctx.powmod(base, Bignum(65537)),
              base.powmod_reference(Bignum(65537), m));
    EXPECT_EQ(ctx.powmod(base, (Bignum(1) << 33) + Bignum(5)),
              base.powmod_reference((Bignum(1) << 33) + Bignum(5), m));
  }
}

// Bignum::powmod routes odd moduli through the Montgomery kernel and even
// moduli through the schoolbook ladder — both must agree with the
// reference, so callers never need to care which engaged.
TEST(MontgomeryTest, BignumPowmodDispatchMatchesReference) {
  Drbg rng(7103, "montgomery-dispatch-fuzz");
  for (int round = 0; round < 40; ++round) {
    const Bignum m = rng.random_bits(2 + rng.uniform(200)) + Bignum(2);
    const Bignum base = rng.random_below(m);
    const Bignum exponent = rng.random_bits(1 + rng.uniform(80));
    ASSERT_EQ(base.powmod(exponent, m), base.powmod_reference(exponent, m))
        << "m=" << m.to_hex() << " (odd=" << m.is_odd() << ")";
  }
}

// A random odd modulus of exactly `limbs` limbs whose top limb is `top`
// (0 = random, nonzero).
Bignum modulus_with_top(Drbg& rng, std::size_t limbs, std::uint64_t top) {
  Bignum m = rng.random_bits(64 * (limbs - 1));
  if (top == 0) {
    while (top == 0) top = rng.uniform(~std::uint64_t{0});
  }
  m = (Bignum(top) << (64 * (limbs - 1))) + m;
  if (!m.is_odd()) m = m + Bignum(1);
  return m;
}

// Every compile-time-width CIOS instance (4, 8, 16 limbs) and two widths
// that run the runtime-width loop (6, 12), against the schoolbook
// reference: random moduli, moduli whose top limb is 2^63 + 1 or all-ones,
// the all-ones modulus, operands below and above m, and exponents on both
// sides of the binary-ladder / fixed-window cutoff.
TEST(MontgomeryTest, FixedWidthKernelsMatchReference) {
  Drbg rng(7104, "montgomery-fixed-width-fuzz");
  for (const std::size_t limbs : {4u, 8u, 16u, 6u, 12u}) {
    std::vector<Bignum> moduli;
    for (int i = 0; i < 4; ++i) moduli.push_back(modulus_with_top(rng, limbs, 0));
    moduli.push_back(modulus_with_top(rng, limbs, (std::uint64_t{1} << 63) + 1));
    moduli.push_back(modulus_with_top(rng, limbs, ~std::uint64_t{0}));
    moduli.push_back((Bignum(1) << (64 * limbs)) - Bignum(1));
    for (const Bignum& m : moduli) {
      const MontgomeryCtx ctx(m);
      ASSERT_EQ(ctx.width(), limbs);
      const std::vector<Bignum> operands = {
          Bignum(0),
          Bignum(1),
          m - Bignum(1),
          m,                                         // == m
          m + rng.random_below(m),                   // in [m, 2m)
          rng.random_bits(64 * limbs),               // full width, may be >= m
          rng.random_bits(64 * (2 * limbs + 1)),     // wider than m
          rng.random_below(m),
          rng.random_below(m),
      };
      for (const Bignum& a : operands) {
        const Bignum b = rng.random_below(m + m);
        ASSERT_EQ(ctx.mulmod(a, b), a.mulmod(b, m))
            << limbs << " limbs, m=" << m.to_hex() << " a=" << a.to_hex();
        for (const std::size_t ebits : {0u, 17u, 32u, 33u, 200u}) {
          const Bignum e = rng.random_bits(ebits);
          ASSERT_EQ(ctx.powmod(a, e), a.powmod_reference(e, m))
              << limbs << " limbs, m=" << m.to_hex() << " a=" << a.to_hex()
              << " e=" << e.to_hex();
        }
      }
    }
  }
}

// The fixed-width steps the CRT signer chains together, checked one by one
// against Bignum arithmetic: conversion in (from inputs of any length) and
// out, the Montgomery product, and modular subtraction.
TEST(MontgomeryTest, FixedWidthStepsMatchBignum) {
  Drbg rng(7105, "montgomery-steps-fuzz");
  for (const std::size_t limbs : {1u, 4u, 6u, 8u, 16u}) {
    for (int round = 0; round < 8; ++round) {
      const Bignum m = modulus_with_top(rng, limbs, 0);
      const MontgomeryCtx ctx(m);
      const Bignum r = Bignum(1) << (64 * limbs);
      const auto limbs_of = [&](const std::vector<std::uint64_t>& v) {
        return Bignum::from_limbs(v);
      };
      const Bignum x = rng.random_bits(64 * (limbs * 2 + 1) - 3);
      const Bignum a = rng.random_below(m);
      const Bignum b = rng.random_below(m);
      std::vector<std::uint64_t> xm(limbs);
      std::vector<std::uint64_t> am(limbs);
      std::vector<std::uint64_t> bm(limbs);
      std::vector<std::uint64_t> out(limbs);
      ctx.to_mont(x.limbs(), xm.data());
      EXPECT_EQ(limbs_of(xm), (x * r) % m);
      ctx.to_mont(a.limbs(), am.data());
      ctx.to_mont(b.limbs(), bm.data());
      ctx.from_mont(am.data(), out.data());
      EXPECT_EQ(limbs_of(out), a);
      ctx.mont_mul(am.data(), bm.data(), out.data());
      EXPECT_EQ(limbs_of(out), (a * b * r) % m);
      ctx.sub_mod(am.data(), bm.data(), out.data());
      EXPECT_EQ(limbs_of(out), ((a + m - b) * r) % m);
      ctx.sub_mod(am.data(), am.data(), out.data());
      EXPECT_TRUE(limbs_of(out).is_zero());
    }
  }
}

}  // namespace
}  // namespace pvr::crypto
