#include "dedup/sha1.hpp"

#include <algorithm>
#include <cstring>

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

void Sha1::process_block(const std::uint8_t* block) noexcept {
  // The message schedule lives in a 16-word ring: w[t] for t >= 16 only
  // needs w[t-3], w[t-8], w[t-14] and w[t-16], which is the slot it
  // overwrites.
  std::uint32_t w[16];
  for (int t = 0; t < 16; ++t) w[t] = load_be32(block + 4 * t);
  const auto schedule = [&w](int t) noexcept {
    std::uint32_t& slot = w[t & 15];
    slot = rotl32(w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ slot,
                  1);
    return slot;
  };

  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
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
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

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
      process_block(buffer_);
      buffered_ = 0;
    }
  }
  while (len >= 64) {
    process_block(p);
    p += 64;
    len -= 64;
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
    process_block(buffer_);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  process_block(buffer_);
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
