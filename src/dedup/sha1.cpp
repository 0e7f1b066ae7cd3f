#include "dedup/sha1.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ADTM_SHA1_X86 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define ADTM_SHA1_X86 0
#endif

namespace adtm::dedup {
namespace {

constexpr std::uint32_t rotl32(std::uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}

// Compilers turn this into one load plus a byte swap (bswap/movbe on x86).
std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

}  // namespace

std::uint64_t Sha1Digest::prefix64() const noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | bytes[static_cast<std::size_t>(i)];
  return v;
}

std::string Sha1Digest::hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(40);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

void Sha1::reset() noexcept {
  h_[0] = 0x67452301u;
  h_[1] = 0xEFCDAB89u;
  h_[2] = 0x98BADCFEu;
  h_[3] = 0x10325476u;
  h_[4] = 0xC3D2E1F0u;
  total_len_ = 0;
  buffered_ = 0;
}

namespace detail {

void sha1_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t blocks) noexcept {
  for (; blocks > 0; --blocks, data += 64) {
    // The message schedule lives in a 16-word ring: w[t] for t >= 16 only
    // needs w[t-3], w[t-8], w[t-14] and w[t-16], which is the slot it
    // overwrites.
    std::uint32_t w[16];
    for (int t = 0; t < 16; ++t) w[t] = load_be32(data + 4 * t);
    const auto schedule = [&w](int t) noexcept {
      std::uint32_t& slot = w[t & 15];
      slot = rotl32(
          w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ slot, 1);
      return slot;
    };

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4];
    const auto step = [&](std::uint32_t f, std::uint32_t k,
                          std::uint32_t wt) noexcept {
      const std::uint32_t tmp = rotl32(a, 5) + f + e + k + wt;
      e = d;
      d = c;
      c = rotl32(b, 30);
      b = a;
      a = tmp;
    };
    // Four groups of 20 rounds, each with its own round function.
    int t = 0;
    for (; t < 16; ++t) step(d ^ (b & (c ^ d)), 0x5A827999u, w[t]);
    for (; t < 20; ++t) step(d ^ (b & (c ^ d)), 0x5A827999u, schedule(t));
    for (; t < 40; ++t) step(b ^ c ^ d, 0x6ED9EBA1u, schedule(t));
    for (; t < 60; ++t) {
      step((b & c) | (d & (b | c)), 0x8F1BBCDCu, schedule(t));
    }
    for (; t < 80; ++t) step(b ^ c ^ d, 0xCA62C1D6u, schedule(t));
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

#if ADTM_SHA1_X86
namespace {

#define ADTM_SHA1_TARGET gnu::target("sha,ssse3,sse4.1")

// Rounds 4g..4g+3. e[g % 2] carries this group's E term; the other slot
// saves ABCD, whose A sha1nexte turns into the next group's E. msg[g % 4]
// holds W[4g..4g+3]; the three message instructions below extend the
// schedule four words at a time, each as early as its inputs allow.
template <int G>
[[ADTM_SHA1_TARGET, gnu::always_inline]] inline void shani_rounds(
    __m128i& abcd, __m128i (&e)[2], __m128i (&msg)[4]) noexcept {
  __m128i& cur = e[G % 2];
  if constexpr (G == 0) {
    cur = _mm_add_epi32(cur, msg[0]);
  } else {
    cur = _mm_sha1nexte_epu32(cur, msg[G % 4]);
  }
  e[(G + 1) % 2] = abcd;
  if constexpr (G >= 3 && G <= 18) {
    msg[(G + 1) % 4] = _mm_sha1msg2_epu32(msg[(G + 1) % 4], msg[G % 4]);
  }
  abcd = _mm_sha1rnds4_epu32(abcd, cur, G / 5);
  if constexpr (G >= 1 && G <= 16) {
    msg[(G + 3) % 4] = _mm_sha1msg1_epu32(msg[(G + 3) % 4], msg[G % 4]);
  }
  if constexpr (G >= 2 && G <= 17) {
    msg[(G + 2) % 4] = _mm_xor_si128(msg[(G + 2) % 4], msg[G % 4]);
  }
}

template <int... G>
[[ADTM_SHA1_TARGET, gnu::always_inline]] inline void shani_all_rounds(
    __m128i& abcd, __m128i (&e)[2], __m128i (&msg)[4],
    std::integer_sequence<int, G...>) noexcept {
  (shani_rounds<G>(abcd, e, msg), ...);
}

}  // namespace

[[ADTM_SHA1_TARGET]] void sha1_blocks_shani(std::uint32_t* state,
                                            const std::uint8_t* data,
                                            std::size_t blocks) noexcept {
  // Byte-reverse each 128-bit lane: the message words are big-endian and
  // the instructions want W[0] in the high dword.
  const __m128i bswap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abcd_in = abcd;
    const __m128i e_in = e0;
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          bswap);
    }
    __m128i e[2] = {e0, e0};
    shani_all_rounds(abcd, e, msg, std::make_integer_sequence<int, 20>{});
    // Group 19 left the ABCD it started from in e[0]: its A is the E
    // term of the final state.
    e0 = _mm_sha1nexte_epu32(e[0], e_in);
    abcd = _mm_add_epi32(abcd, abcd_in);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

#undef ADTM_SHA1_TARGET

bool sha1_shani_supported() noexcept {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool ssse3 = (c & bit_SSSE3) != 0;
  const bool sse41 = (c & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return ssse3 && sse41 && (b & bit_SHA) != 0;
}
#else
void sha1_blocks_shani(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) noexcept {
  sha1_blocks_portable(state, data, blocks);
}

bool sha1_shani_supported() noexcept { return false; }
#endif

Sha1BlockFn sha1_blocks() noexcept {
  static const Sha1BlockFn chosen =
      sha1_shani_supported() ? sha1_blocks_shani : sha1_blocks_portable;
  return chosen;
}

Sha1Digest sha1_with(Sha1BlockFn blocks, const void* data,
                     std::size_t len) noexcept {
  Sha1 h(blocks);
  h.update(data, len);
  return h.finish();
}

}  // namespace detail

void Sha1::update(const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;
  if (buffered_ > 0) {
    const std::size_t take = std::min(len, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    len -= take;
    if (buffered_ == sizeof(buffer_)) {
      blocks_(h_, buffer_, 1);
      buffered_ = 0;
    }
  }
  if (len >= 64) {
    blocks_(h_, p, len / 64);
    p += len / 64 * 64;
    len %= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffered_ = len;
  }
}

Sha1Digest Sha1::finish() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;
  // Pad in place: 0x80, zeros up to byte 56 of a block (spilling into a
  // second block when fewer than 9 bytes are left), then the bit length.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_ + buffered_, 0, sizeof(buffer_) - buffered_);
    blocks_(h_, buffer_, 1);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  blocks_(h_, buffer_, 1);
  buffered_ = 0;

  Sha1Digest digest;
  for (int i = 0; i < 5; ++i) {
    digest.bytes[static_cast<std::size_t>(i * 4)] =
        static_cast<std::uint8_t>(h_[i] >> 24);
    digest.bytes[static_cast<std::size_t>(i * 4 + 1)] =
        static_cast<std::uint8_t>(h_[i] >> 16);
    digest.bytes[static_cast<std::size_t>(i * 4 + 2)] =
        static_cast<std::uint8_t>(h_[i] >> 8);
    digest.bytes[static_cast<std::size_t>(i * 4 + 3)] =
        static_cast<std::uint8_t>(h_[i]);
  }
  return digest;
}

Sha1Digest sha1(const void* data, std::size_t len) noexcept {
  Sha1 h;
  h.update(data, len);
  return h.finish();
}

Sha1Digest sha1(std::span<const std::byte> data) noexcept {
  return sha1(data.data(), data.size());
}

Sha1Digest sha1(const std::string& data) noexcept {
  return sha1(data.data(), data.size());
}

}  // namespace adtm::dedup
