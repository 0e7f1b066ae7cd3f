#include "dedup/lzss.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace adtm::dedup {
namespace {

// Format constants.
//
// token stream: [u32 raw_size] then groups of (flag byte + 8 tokens).
// flag bit i set   -> token i is a match: u16 (offset-1), u8 (len-kMinMatch)
// flag bit i clear -> token i is a literal byte
constexpr std::size_t kWindow = 64 * 1024;   // max match offset
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = kMinMatch + 255;
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;
constexpr std::size_t kMaxChainSteps = 32;  // match-finder effort bound

constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;  // empty head/chain slot

std::uint32_t hash4(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Length of the common prefix of a and b, at most max_len bytes, compared
// a word at a time.
std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t max_len) noexcept {
  std::size_t len = 0;
  while (len + 8 <= max_len) {
    std::uint64_t x, y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (const std::uint64_t diff = x ^ y; diff != 0) {
      // The first differing byte is the lowest-addressed one.
      const int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(diff)
                           : std::countl_zero(diff);
      return len + static_cast<std::size_t>(bits / 8);
    }
    len += 8;
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

}  // namespace

std::vector<std::byte> lzss_compress(std::span<const std::byte> input) {
  const auto* data = reinterpret_cast<const std::uint8_t*>(input.data());
  const std::size_t n = input.size();
  // The header holds n in 32 bits, and positions are stored in 32 bits.
  if (n > 0xFFFFFFFFu) {
    throw std::length_error("lzss: input of 4 GiB or more");
  }

  std::vector<std::byte> out;
  out.reserve(n / 2 + 16);
  const auto put = [&out](std::uint8_t b) {
    out.push_back(static_cast<std::byte>(b));
  };
  put(static_cast<std::uint8_t>(n));
  put(static_cast<std::uint8_t>(n >> 8));
  put(static_cast<std::uint8_t>(n >> 16));
  put(static_cast<std::uint8_t>(n >> 24));

  // head[h]: most recent position with hash h; chain[i % kWindow]: previous
  // position with the same hash as position i. A chain slot is only read
  // for a position already inserted, so it needs no initial fill.
  std::vector<std::uint32_t> head(kHashSize, kNoPos);
  const auto chain =
      std::make_unique_for_overwrite<std::uint32_t[]>(std::min(n, kWindow));
  const auto insert = [&](std::size_t pos) {
    const std::uint32_t h = hash4(data + pos);
    chain[pos % kWindow] = head[h];
    head[h] = static_cast<std::uint32_t>(pos);
  };

  std::size_t flag_pos = 0;  // index of the current flag byte in `out`
  int tokens_in_group = 8;   // forces a fresh flag byte at the start

  const auto begin_token = [&](bool is_match) {
    if (tokens_in_group == 8) {
      flag_pos = out.size();
      put(0);
      tokens_in_group = 0;
    }
    if (is_match) {
      out[flag_pos] = static_cast<std::byte>(
          static_cast<std::uint8_t>(out[flag_pos]) |
          (1u << tokens_in_group));
    }
    ++tokens_in_group;
  };

  // Positions from which a 4-byte hash can be read.
  const std::size_t hashable = n >= kMinMatch ? n - kMinMatch + 1 : 0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t best_len = 0;
    std::size_t best_off = 0;
    if (i < hashable) {
      std::size_t cand = head[hash4(data + i)];
      std::size_t steps = 0;
      const std::size_t max_len = std::min(kMaxMatch, n - i);
      // kNoPos is above every position, so i - kNoPos wraps past kWindow
      // and ends the walk like an out-of-window candidate.
      while (steps < kMaxChainSteps && i - cand <= kWindow) {
        // A candidate that differs at byte best_len cannot be longer.
        if (data[cand + best_len] == data[i + best_len]) {
          const std::size_t len = match_length(data + cand, data + i, max_len);
          if (len > best_len) {
            best_len = len;
            best_off = i - cand;
            if (len == max_len) break;
          }
        }
        cand = chain[cand % kWindow];
        ++steps;
      }
    }

    if (best_len >= kMinMatch) {
      begin_token(true);
      const std::uint16_t off = static_cast<std::uint16_t>(best_off - 1);
      put(static_cast<std::uint8_t>(off));
      put(static_cast<std::uint8_t>(off >> 8));
      put(static_cast<std::uint8_t>(best_len - kMinMatch));
      // Index every covered position so later matches can reach into this
      // region.
      const std::size_t end = i + best_len;
      for (; i < std::min(end, hashable); ++i) insert(i);
      i = end;
    } else {
      begin_token(false);
      put(data[i]);
      if (i < hashable) insert(i);
      ++i;
    }
  }
  return out;
}

std::vector<std::byte> lzss_decompress(std::span<const std::byte> input) {
  const auto* in = reinterpret_cast<const std::uint8_t*>(input.data());
  const std::size_t n = input.size();
  if (n < 4) throw std::runtime_error("lzss: truncated header");

  const std::size_t raw_size = std::size_t{in[0]} | (std::size_t{in[1]} << 8) |
                               (std::size_t{in[2]} << 16) |
                               (std::size_t{in[3]} << 24);
  std::vector<std::byte> out;
  out.reserve(raw_size);

  std::size_t i = 4;
  std::uint8_t flags = 0;
  int bits_left = 0;
  while (out.size() < raw_size) {
    if (bits_left == 0) {
      if (i >= n) throw std::runtime_error("lzss: missing flag byte");
      flags = in[i++];
      bits_left = 8;
    }
    const bool is_match = (flags & 1) != 0;
    flags >>= 1;
    --bits_left;

    if (is_match) {
      if (i + 3 > n) throw std::runtime_error("lzss: truncated match");
      const std::size_t off =
          (std::size_t{in[i]} | (std::size_t{in[i + 1]} << 8)) + 1;
      const std::size_t len = std::size_t{in[i + 2]} + kMinMatch;
      i += 3;
      if (off > out.size()) throw std::runtime_error("lzss: bad offset");
      if (out.size() + len > raw_size) {
        throw std::runtime_error("lzss: output overrun");
      }
      // Byte-by-byte copy: overlapping matches (off < len) replicate,
      // exactly as LZ77 semantics require.
      std::size_t src = out.size() - off;
      for (std::size_t k = 0; k < len; ++k) {
        out.push_back(out[src + k]);
      }
    } else {
      if (i >= n) throw std::runtime_error("lzss: truncated literal");
      out.push_back(static_cast<std::byte>(in[i++]));
    }
  }
  return out;
}

std::string lzss_compress_str(const std::string& input) {
  const auto out = lzss_compress(
      std::span<const std::byte>(reinterpret_cast<const std::byte*>(input.data()),
                                 input.size()));
  return std::string(reinterpret_cast<const char*>(out.data()), out.size());
}

std::string lzss_decompress_str(const std::string& input) {
  const auto out = lzss_decompress(
      std::span<const std::byte>(reinterpret_cast<const std::byte*>(input.data()),
                                 input.size()));
  return std::string(reinterpret_cast<const char*>(out.data()), out.size());
}

}  // namespace adtm::dedup
