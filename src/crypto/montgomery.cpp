#include "crypto/montgomery.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "obs/metrics.h"

namespace pvr::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

using Limbs = std::array<u64, kMaxMontgomeryLimbs>;

// -n^{-1} mod 2^64 by Newton iteration: inv *= 2 - n0*inv doubles the
// number of correct low bits each step, and n0 odd makes inv = n0 a
// 3-bits-correct seed (n0 * n0 ≡ 1 mod 8).
[[nodiscard]] u64 neg_inverse_64(u64 n0) {
  u64 inv = n0;
  for (int i = 0; i < 5; ++i) inv *= 2 - n0 * inv;
  return ~inv + 1;
}

// One CIOS pass: out = a * b * R^{-1} mod n over w limbs, for a * b < n * R
// (so the accumulator ends below 2n). W != 0 fixes the width at compile time
// so every loop unrolls and the accumulator is exactly W + 2 limbs; W == 0
// runs the same loop to the runtime width `runtime_w` over buffers sized for
// kMaxMontgomeryLimbs. out may alias a or b: it is written only after both
// are last read.
template <std::size_t W>
void cios(const u64* a, const u64* b, const u64* n, u64 n0inv,
          std::size_t runtime_w, u64* out) {
  constexpr std::size_t kCap = (W != 0 ? W : kMaxMontgomeryLimbs) + 2;
  const std::size_t w = W != 0 ? W : runtime_w;
  std::array<u64, kCap> t{};  // t[w + 1] never exceeds 1
  for (std::size_t i = 0; i < w; ++i) {
    // t += a[i] * b
    u128 carry = 0;
    const u128 ai = a[i];
    for (std::size_t j = 0; j < w; ++j) {
      const u128 cur = t[j] + ai * b[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = cur >> 64;
    }
    u128 cur = t[w] + carry;
    t[w] = static_cast<u64>(cur);
    t[w + 1] += static_cast<u64>(cur >> 64);

    // t = (t + m_factor * n) / 2^64
    const u64 m_factor = t[0] * n0inv;
    const u128 mf = m_factor;
    carry = (t[0] + mf * n[0]) >> 64;  // low limb becomes exactly 0
    for (std::size_t j = 1; j < w; ++j) {
      const u128 sum = t[j] + mf * n[j] + carry;
      t[j - 1] = static_cast<u64>(sum);
      carry = sum >> 64;
    }
    cur = t[w] + carry;
    t[w - 1] = static_cast<u64>(cur);
    t[w] = t[w + 1] + static_cast<u64>(cur >> 64);
    t[w + 1] = 0;
  }

  // Conditional final subtraction: t (w + 1 limbs) is < 2n, so the result
  // is t - n unless that subtraction borrows out of t[w].
  std::array<u64, kCap> d{};
  u64 borrow = 0;
  for (std::size_t i = 0; i < w; ++i) {
    const u128 diff = static_cast<u128>(t[i]) - n[i] - borrow;
    d[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1;
  }
  const u64* result = borrow > t[w] ? t.data() : d.data();
  std::copy_n(result, w, out);
}

// out = (a + b) mod n for a, b < n.
void add_mod(const u64* a, const u64* b, const u64* n, std::size_t w,
             u64* out) {
  Limbs sum{};
  u64 carry = 0;
  for (std::size_t i = 0; i < w; ++i) {
    const u128 s = static_cast<u128>(a[i]) + b[i] + carry;
    sum[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  Limbs reduced{};
  u64 borrow = 0;
  for (std::size_t i = 0; i < w; ++i) {
    const u128 diff = static_cast<u128>(sum[i]) - n[i] - borrow;
    reduced[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1;
  }
  std::copy_n(borrow > carry ? sum.data() : reduced.data(), w, out);
}

}  // namespace

MontgomeryCtx::MontgomeryCtx(const Bignum& m) : m_(m) {
  if (!m.is_odd() || m.is_one()) {
    throw std::invalid_argument("MontgomeryCtx: modulus must be odd and > 1");
  }
  const auto limbs = m.limbs();
  if (limbs.size() > kMaxMontgomeryLimbs) {
    throw std::invalid_argument("MontgomeryCtx: modulus too wide");
  }
  n_.assign(limbs.begin(), limbs.end());
  n0inv_ = neg_inverse_64(n_[0]);
  // R^2 mod m via one wide division — the only division this context ever
  // performs. Deliberately NOT Bignum::mulmod so the kSim-deterministic
  // crypto.mulmod_calls counter keeps meaning "schoolbook ladder steps".
  const Bignum rr = (Bignum(1) << (128 * n_.size())) % m_;
  rr_.assign(n_.size(), 0);
  std::copy(rr.limbs().begin(), rr.limbs().end(), rr_.begin());
}

void MontgomeryCtx::mont_mul(const u64* a, const u64* b, u64* out) const {
  switch (n_.size()) {
    case 4: return cios<4>(a, b, n_.data(), n0inv_, 4, out);
    case 8: return cios<8>(a, b, n_.data(), n0inv_, 8, out);
    case 16: return cios<16>(a, b, n_.data(), n0inv_, 16, out);
    default: return cios<0>(a, b, n_.data(), n0inv_, n_.size(), out);
  }
}

void MontgomeryCtx::to_mont(std::span<const u64> x, u64* out) const {
  // Horner over width()-limb chunks from the top: acc = acc * R + chunk,
  // kept in Montgomery form (a CIOS multiply by R^2 multiplies by R). Each
  // chunk is < R and R^2 mod m < m, so every product stays in CIOS range.
  const std::size_t w = width();
  const std::size_t chunks = std::max<std::size_t>(1, (x.size() + w - 1) / w);
  Limbs acc{};
  Limbs chunk{};
  for (std::size_t c = chunks; c-- > 0;) {
    for (std::size_t i = 0; i < w; ++i) {
      chunk[i] = c * w + i < x.size() ? x[c * w + i] : 0;
    }
    mont_mul(chunk.data(), rr_.data(), chunk.data());  // chunk * R mod m
    if (c + 1 == chunks) {
      std::copy_n(chunk.data(), w, acc.begin());
    } else {
      mont_mul(acc.data(), rr_.data(), acc.data());
      add_mod(acc.data(), chunk.data(), n_.data(), w, acc.data());
    }
  }
  std::copy_n(acc.data(), w, out);
}

void MontgomeryCtx::from_mont(const u64* x, u64* out) const {
  Limbs one{};
  one[0] = 1;
  mont_mul(x, one.data(), out);
}

void MontgomeryCtx::sub_mod(const u64* a, const u64* b, u64* out) const {
  const std::size_t w = width();
  Limbs diff{};
  u64 borrow = 0;
  for (std::size_t i = 0; i < w; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    diff[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  if (borrow != 0) {  // a < b: add m back; the carry out cancels the borrow
    u64 carry = 0;
    for (std::size_t i = 0; i < w; ++i) {
      const u128 s = static_cast<u128>(diff[i]) + n_[i] + carry;
      diff[i] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
  }
  std::copy_n(diff.data(), w, out);
}

void MontgomeryCtx::mont_pow(const u64* base, const Bignum& exponent,
                             u64* out) const {
  PVR_OBS_COUNT(crypto_mont_powmods, 1);
  const std::size_t w = width();
  const std::size_t nbits = exponent.bit_length();
  const u64 one = 1;
  Limbs acc{};
  if (nbits == 0) {
    to_mont(std::span(&one, 1), acc.data());
  } else if (nbits <= 32) {
    // Plain left-to-right binary ladder: for e = 65537 this is 16 squares
    // + 1 multiply, cheaper than any window's table build.
    std::copy_n(base, w, acc.begin());
    for (std::size_t i = nbits - 1; i-- > 0;) {
      mont_mul(acc.data(), acc.data(), acc.data());
      if (exponent.bit(i)) mont_mul(acc.data(), base, acc.data());
    }
  } else {
    // 4-bit fixed window, the same schedule as powmod_reference, over a
    // stack table of base^0..base^15 at stride w. A window never straddles
    // a limb, so each is read with one shift.
    std::array<u64, 16 * kMaxMontgomeryLimbs> table{};
    to_mont(std::span(&one, 1), table.data());
    std::copy_n(base, w, table.data() + w);
    for (std::size_t i = 2; i < 16; ++i) {
      mont_mul(table.data() + (i - 1) * w, base, table.data() + i * w);
    }
    std::copy_n(table.data(), w, acc.begin());
    const std::span<const u64> e = exponent.limbs();
    for (std::size_t wi = (nbits + 3) / 4; wi-- > 0;) {
      for (int s = 0; s < 4; ++s) mont_mul(acc.data(), acc.data(), acc.data());
      const unsigned window =
          static_cast<unsigned>(e[wi / 16] >> (4 * (wi % 16))) & 0xfu;
      if (window != 0) {
        mont_mul(acc.data(), table.data() + window * w, acc.data());
      }
    }
  }
  std::copy_n(acc.data(), w, out);
}

Bignum MontgomeryCtx::mulmod(const Bignum& a, const Bignum& b) const {
  std::vector<u64> am(width());
  std::vector<u64> bm(width());
  to_mont(a.limbs(), am.data());         // a*R mod m
  to_mont(b.limbs(), bm.data());         // b*R mod m
  mont_mul(am.data(), bm.data(), am.data());  // a*b*R mod m
  from_mont(am.data(), am.data());
  return Bignum::from_limbs(std::move(am));
}

Bignum MontgomeryCtx::powmod(const Bignum& base, const Bignum& exponent) const {
  std::vector<u64> acc(width());
  to_mont(base.limbs(), acc.data());
  mont_pow(acc.data(), exponent, acc.data());
  from_mont(acc.data(), acc.data());
  return Bignum::from_limbs(std::move(acc));
}

}  // namespace pvr::crypto
