#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#define PVR_SHA256_SHANI 1
#else
#define PVR_SHA256_SHANI 0
#endif

#include "obs/metrics.h"

namespace pvr::crypto {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

[[nodiscard]] constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return std::rotr(x, n);
}

#if PVR_SHA256_SHANI

// CPUID leaf 7 EBX bit 29 (SHA), plus the SSSE3/SSE4.1 shuffles the
// transform uses. Reads CPUID directly rather than __builtin_cpu_supports,
// which is only valid after the compiler's CPU-model constructor has run —
// this may be called from another translation unit's static initializer.
[[nodiscard]] bool cpu_has_sha_ni() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse = (ecx & bit_SSSE3) != 0 && (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return sse && (ebx & bit_SHA) != 0;
}

// The SHA-NI block transform (Intel SHA extensions) over `blocks` 64-byte
// blocks. State is kept as the ABEF/CDGH register pair the sha256rnds2
// instruction works on; message words W[4i..4i+3] (written W[i] below)
// live in w[i % 4], and sha256msg1/msg2 extend the schedule four words at a
// time.
__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) noexcept {
  const __m128i byteswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                    // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);              // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);      // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);           // CDGH

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef = state0;
    const __m128i cdgh = state1;
    __m128i w[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      if (i < 4) {
        w[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            byteswap);
      }
      const __m128i cur = w[i & 3];
      const __m128i wk = _mm_add_epi32(
          cur, _mm_load_si128(reinterpret_cast<const __m128i*>(
                   kRoundConstants.data() + 4 * i)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      if (i >= 3 && i <= 14) {
        // W[i+1] from sha256msg1(W[i-3], W[i-2]) (already in its slot),
        // W[i] and W[i-1]; W[i-1] is still raw here.
        __m128i& next = w[(i + 1) & 3];
        next = _mm_sha256msg2_epu32(
            _mm_add_epi32(next, _mm_alignr_epi8(cur, w[(i - 1) & 3], 4)), cur);
      }
      state0 = _mm_sha256rnds2_epu32(state0, state1,
                                     _mm_shuffle_epi32(wk, 0x0E));
      if (i >= 1 && i <= 12) {
        __m128i& older = w[(i - 1) & 3];
        older = _mm_sha256msg1_epu32(older, cur);
      }
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);                 // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);              // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);           // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);              // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

#endif  // PVR_SHA256_SHANI

// Chosen once per process, on first use, by CPUID alone.
[[nodiscard]] bool use_sha_ni() noexcept {
#if PVR_SHA256_SHANI
  static const bool available = cpu_has_sha_ni();
  return available;
#else
  return false;
#endif
}

}  // namespace

const char* sha256_backend() noexcept {
  return use_sha_ni() ? "shani" : "scalar";
}

Sha256::Sha256() noexcept
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buffer_{} {}

void Sha256::process_block(const std::uint8_t* block) noexcept {
  std::array<std::uint32_t, 64> w;
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  auto [a, b, c, d, e, f, g, h] = state_;

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::compress(const std::uint8_t* data, std::size_t blocks) noexcept {
#if PVR_SHA256_SHANI
  if (!scalar_only_ && use_sha_ni()) {
    compress_shani(state_.data(), data, blocks);
    return;
  }
#endif
  for (; blocks > 0; --blocks, data += 64) process_block(data);
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  if (counted_) PVR_OBS_COUNT(crypto_bytes_hashed, data.size());
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == buffer_.size()) {
      compress(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress(data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

void Sha256::update(std::string_view data) noexcept {
  update(std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                   data.size()));
}

Digest Sha256::finalize() noexcept {
  // FIPS 180-4 padding in one update: 0x80, zeros up to 56 mod 64, then the
  // message length in bits. update() counts these pad bytes into
  // crypto.bytes_hashed exactly as byte-at-a-time padding did.
  const std::uint64_t bit_len = total_len_ * 8;
  const std::size_t pad_len = (buffer_len_ < 56 ? 56 : 120) - buffer_len_ + 8;
  std::array<std::uint8_t, 72> pad{};
  pad[0] = 0x80;
  for (int i = 0; i < 8; ++i) {
    pad[pad_len - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(std::span(pad.data(), pad_len));

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(std::span<const std::uint8_t> data) noexcept {
  Sha256 hasher;
  hasher.update(data);
  return hasher.finalize();
}

Digest sha256(std::string_view data) noexcept {
  Sha256 hasher;
  hasher.update(data);
  return hasher.finalize();
}

Digest sha256_uncounted(std::span<const std::uint8_t> data) noexcept {
  Sha256 hasher;
  hasher.counted_ = false;
  hasher.update(data);
  return hasher.finalize();
}

Digest sha256_scalar(std::span<const std::uint8_t> data) noexcept {
  Sha256 hasher;
  hasher.scalar_only_ = true;
  hasher.update(data);
  return hasher.finalize();
}

std::string digest_hex(const Digest& digest) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(digest.size() * 2);
  for (const std::uint8_t byte : digest) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xf]);
  }
  return out;
}

std::vector<std::uint8_t> digest_bytes(const Digest& digest) {
  return {digest.begin(), digest.end()};
}

}  // namespace pvr::crypto
