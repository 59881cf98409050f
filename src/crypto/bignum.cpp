#include "crypto/bignum.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "crypto/montgomery.h"
#include "obs/metrics.h"

namespace pvr::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

[[nodiscard]] int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("Bignum::from_hex: invalid hex digit");
}

}  // namespace

Bignum::Bignum(u64 value) {
  if (value != 0) limbs_.push_back(value);
}

void Bignum::trim() noexcept {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

Bignum Bignum::from_limbs(std::vector<u64> limbs) {
  Bignum out;
  out.limbs_ = std::move(limbs);
  out.trim();
  return out;
}

Bignum Bignum::from_hex(std::string_view hex) {
  Bignum out;
  for (char c : hex) {
    if (c == '_' || c == ' ') continue;
    const int d = hex_digit(c);
    out = (out << 4) + Bignum(static_cast<u64>(d));
  }
  return out;
}

Bignum Bignum::from_bytes_be(std::span<const std::uint8_t> bytes) {
  std::vector<u64> limbs((bytes.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // bytes[0] is most significant.
    const std::size_t bit_pos = (bytes.size() - 1 - i) * 8;
    limbs[bit_pos / 64] |= static_cast<u64>(bytes[i]) << (bit_pos % 64);
  }
  return from_limbs(std::move(limbs));
}

std::vector<std::uint8_t> Bignum::to_bytes_be(std::size_t length) const {
  if (bit_length() > length * 8) {
    throw std::length_error("Bignum::to_bytes_be: value does not fit");
  }
  std::vector<std::uint8_t> out(length, 0);
  for (std::size_t i = 0; i < length; ++i) {
    const std::size_t bit_pos = (length - 1 - i) * 8;
    const std::size_t limb = bit_pos / 64;
    if (limb < limbs_.size()) {
      out[i] = static_cast<std::uint8_t>(limbs_[limb] >> (bit_pos % 64));
    }
  }
  return out;
}

std::vector<std::uint8_t> Bignum::to_bytes_be() const {
  return to_bytes_be((bit_length() + 7) / 8);
}

std::string Bignum::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  bool leading = true;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      const int d = static_cast<int>((limbs_[i] >> shift) & 0xf);
      if (leading && d == 0) continue;
      leading = false;
      out.push_back(kDigits[d]);
    }
  }
  return out;
}

std::size_t Bignum::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  const u64 top = limbs_.back();
  return (limbs_.size() - 1) * 64 +
         (64 - static_cast<std::size_t>(__builtin_clzll(top)));
}

bool Bignum::bit(std::size_t i) const noexcept {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1u;
}

void Bignum::set_bit(std::size_t i) {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) limbs_.resize(limb + 1, 0);
  limbs_[limb] |= (u64{1} << (i % 64));
}

std::strong_ordering Bignum::operator<=>(const Bignum& other) const noexcept {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() <=> other.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] <=> other.limbs_[i];
  }
  return std::strong_ordering::equal;
}

Bignum Bignum::operator+(const Bignum& rhs) const {
  std::vector<u64> out(std::max(limbs_.size(), rhs.limbs_.size()) + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    u128 sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < rhs.limbs_.size()) sum += rhs.limbs_[i];
    out[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  assert(carry == 0);
  return from_limbs(std::move(out));
}

Bignum Bignum::operator-(const Bignum& rhs) const {
  if (*this < rhs) throw std::underflow_error("Bignum::operator-: negative result");
  std::vector<u64> out(limbs_.size(), 0);
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const u64 r = i < rhs.limbs_.size() ? rhs.limbs_[i] : 0;
    const u128 lhs_val = limbs_[i];
    const u128 sub = static_cast<u128>(r) + borrow;
    if (lhs_val >= sub) {
      out[i] = static_cast<u64>(lhs_val - sub);
      borrow = 0;
    } else {
      out[i] = static_cast<u64>((u128{1} << 64) + lhs_val - sub);
      borrow = 1;
    }
  }
  assert(borrow == 0);
  return from_limbs(std::move(out));
}

Bignum Bignum::operator*(const Bignum& rhs) const {
  if (is_zero() || rhs.is_zero()) return {};
  std::vector<u64> out(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      u128 acc = static_cast<u128>(limbs_[i]) * rhs.limbs_[j];
      acc += out[i + j];
      acc += carry;
      out[i + j] = static_cast<u64>(acc);
      carry = static_cast<u64>(acc >> 64);
    }
    out[i + rhs.limbs_.size()] += carry;
  }
  return from_limbs(std::move(out));
}

Bignum Bignum::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    if (bits == 0) return *this;
    return {};
  }
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  std::vector<u64> out(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  return from_limbs(std::move(out));
}

Bignum Bignum::operator>>(std::size_t bits) const {
  if (bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return {};
  std::vector<u64> out(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  return from_limbs(std::move(out));
}

Bignum::DivMod Bignum::divmod(const Bignum& divisor) const {
  if (divisor.is_zero()) throw std::domain_error("Bignum::divmod: division by zero");
  if (*this < divisor) return {.quotient = {}, .remainder = *this};
  if (divisor.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    const u64 d = divisor.limbs_[0];
    std::vector<u64> q(limbs_.size(), 0);
    u128 rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const u128 cur = (rem << 64) | limbs_[i];
      q[i] = static_cast<u64>(cur / d);
      rem = cur % d;
    }
    return {.quotient = from_limbs(std::move(q)),
            .remainder = Bignum(static_cast<u64>(rem))};
  }

  // Knuth TAOCP vol. 2, Algorithm 4.3.1-D. Normalize so the divisor's top
  // limb has its high bit set, then estimate each quotient limb from the
  // top three dividend limbs / top two divisor limbs.
  const std::size_t shift =
      static_cast<std::size_t>(__builtin_clzll(divisor.limbs_.back()));
  const Bignum u = *this << shift;
  const Bignum v = divisor << shift;
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size() - n;

  std::vector<u64> un(u.limbs_);
  un.push_back(0);  // u has m+n+1 limbs during the loop
  const std::vector<u64>& vn = v.limbs_;
  std::vector<u64> q(m + 1, 0);

  const u64 v_top = vn[n - 1];
  const u64 v_second = vn[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    const u128 numerator = (static_cast<u128>(un[j + n]) << 64) | un[j + n - 1];
    u128 qhat = numerator / v_top;
    u128 rhat = numerator % v_top;
    while (qhat >= (u128{1} << 64) ||
           qhat * v_second > ((rhat << 64) | un[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >= (u128{1} << 64)) break;
    }

    // Multiply-and-subtract: un[j..j+n] -= qhat * vn.
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 product = qhat * vn[i] + carry;
      carry = product >> 64;
      const u64 sub = static_cast<u64>(product);
      const u128 diff = static_cast<u128>(un[i + j]) - sub - borrow;
      un[i + j] = static_cast<u64>(diff);
      borrow = (diff >> 64) & 1;  // 1 if the subtraction wrapped
    }
    const u128 diff = static_cast<u128>(un[j + n]) - carry - borrow;
    un[j + n] = static_cast<u64>(diff);

    if ((diff >> 64) & 1) {
      // qhat was one too large: add the divisor back.
      --qhat;
      u128 add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u128 sum = static_cast<u128>(un[i + j]) + vn[i] + add_carry;
        un[i + j] = static_cast<u64>(sum);
        add_carry = sum >> 64;
      }
      un[j + n] += static_cast<u64>(add_carry);
    }
    q[j] = static_cast<u64>(qhat);
  }

  un.resize(n);
  return {.quotient = from_limbs(std::move(q)),
          .remainder = from_limbs(std::move(un)) >> shift};
}

Bignum Bignum::mulmod(const Bignum& rhs, const Bignum& m) const {
  // Counting covers the schoolbook ladder (powmod_reference) and the
  // one remaining direct caller, Miller–Rabin's squarings (CRT signing
  // recombines in Montgomery form and never calls this). Two
  // wall_clock_us() reads per ~1 µs multiply is measurable overhead, so
  // the timing pair samples 1 in 64 calls; the count stays exact. Both
  // fold away under -DPVR_OBS=OFF (wall_clock_us is constexpr-0).
  PVR_OBS_COUNT(crypto_mulmod_calls, 1);
#if PVR_OBS_ENABLED
  thread_local std::uint64_t sample_tick = 0;
  if ((sample_tick++ & 63u) == 0) {
    const std::uint64_t t0 = obs::wall_clock_us();
    Bignum out = (*this * rhs) % m;
    PVR_OBS_RECORD(crypto_mulmod_us, obs::wall_clock_us() - t0);
    return out;
  }
#endif
  return (*this * rhs) % m;
}

Bignum Bignum::powmod(const Bignum& exponent, const Bignum& m) const {
  if (m.is_zero()) throw std::domain_error("Bignum::powmod: zero modulus");
  if (m.is_one()) return {};
  if (m.is_odd() && m.limbs_.size() <= kMaxMontgomeryLimbs) {
    return MontgomeryCtx(m).powmod(*this, exponent);
  }
  return powmod_reference(exponent, m);
}

Bignum Bignum::powmod_reference(const Bignum& exponent, const Bignum& m) const {
  if (m.is_zero()) throw std::domain_error("Bignum::powmod: zero modulus");
  if (m.is_one()) return {};
  if (exponent.is_zero()) return Bignum(1);

  const Bignum base = *this % m;

  // 4-bit fixed window: precompute base^0..base^15 mod m.
  std::array<Bignum, 16> table;
  table[0] = Bignum(1);
  for (std::size_t i = 1; i < table.size(); ++i) {
    table[i] = table[i - 1].mulmod(base, m);
  }

  Bignum result(1);
  const std::size_t nbits = exponent.bit_length();
  const std::size_t nwindows = (nbits + 3) / 4;
  for (std::size_t w = nwindows; w-- > 0;) {
    for (int s = 0; s < 4; ++s) result = result.mulmod(result, m);
    unsigned window = 0;
    for (std::size_t b = 0; b < 4; ++b) {
      window = (window << 1) | (exponent.bit(w * 4 + 3 - b) ? 1u : 0u);
    }
    if (window != 0) result = result.mulmod(table[window], m);
  }
  return result;
}

Bignum Bignum::gcd(Bignum a, Bignum b) {
  while (!b.is_zero()) {
    Bignum r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

Bignum Bignum::invmod(const Bignum& m) const {
  // Extended Euclid on (m, *this mod m), tracking only the coefficient of
  // *this. Signs are handled by keeping coefficients reduced mod m.
  if (m.is_zero() || m.is_one()) return {};
  Bignum r0 = m;
  Bignum r1 = *this % m;
  Bignum t0;            // coefficient of r0
  Bignum t1 = Bignum(1);  // coefficient of r1
  bool t0_neg = false;
  bool t1_neg = false;

  while (!r1.is_zero()) {
    const DivMod dm = r0.divmod(r1);
    // t2 = t0 - q*t1 (with explicit sign bookkeeping).
    Bignum qt1 = dm.quotient * t1;
    Bignum t2;
    bool t2_neg = false;
    if (t0_neg == t1_neg) {
      if (t0 >= qt1) {
        t2 = t0 - qt1;
        t2_neg = t0_neg;
      } else {
        t2 = qt1 - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt1;
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = dm.remainder;
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }

  if (!r0.is_one()) return {};  // not coprime: no inverse
  if (t0_neg) return m - (t0 % m);
  return t0 % m;
}

}  // namespace pvr::crypto
