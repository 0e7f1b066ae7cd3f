#include "dedup/rabin.hpp"

#include <algorithm>

namespace adtm::dedup {
namespace {

// Karp–Rabin rolling hash: fp = sum(win[i] * P^(W-1-i)) mod 2^64. An odd
// multiplier makes the map over Z/2^64 well-mixed in the low bits we test
// against the boundary mask.
constexpr std::uint64_t kPrime = 0x3B9ACA07'D2D848A5ULL | 1;

std::uint64_t pow_prime(std::size_t e) noexcept {
  std::uint64_t r = 1, b = kPrime;
  while (e > 0) {
    if (e & 1) r *= b;
    b *= b;
    e >>= 1;
  }
  return r;
}

// Length of the chunk that starts at `b`, with `rem` bytes left: the first
// length L >= min_chunk whose fingerprint matches, else max_chunk (at least
// one byte), else rem. The fingerprint after L bytes covers only the last
// min(L, w) of them, so rolling starts w bytes before the first tested
// length, straight over the input: the byte leaving the window is b[p - w].
std::size_t cut_length(const std::uint8_t* b, std::size_t rem,
                       const ChunkParams& params, std::size_t w,
                       std::uint64_t leave_weight) noexcept {
  const std::size_t hard =
      std::min(std::max<std::size_t>(params.max_chunk, 1), rem);
  const std::size_t first = std::max<std::size_t>(params.min_chunk, 1);
  if (first >= hard) return hard;

  std::size_t p = first > w ? first - w : 0;
  std::uint64_t fp = 0;
  // Filling the window: no byte leaves yet.
  for (const std::size_t fill_end = std::min(p + w, hard - 1); p < fill_end;
       ++p) {
    fp = fp * kPrime + (std::uint64_t{b[p]} + 1);
    if (p + 1 >= first && (fp & params.mask) == params.magic) return p + 1;
  }
  for (; p + 1 < hard; ++p) {
    // (fp - (out + 1) * P^(w-1)) * P + (in + 1), with the leaving byte's
    // term off the fp dependency chain.
    fp = fp * kPrime + ((std::uint64_t{b[p]} + 1) -
                        (std::uint64_t{b[p - w]} + 1) * leave_weight);
    if ((fp & params.mask) == params.magic) return p + 1;
  }
  return hard;
}

}  // namespace

RabinRoller::RabinRoller(std::size_t window) noexcept
    : win_(window == 0 ? 1 : window, 0) {
  pop_ = pow_prime(win_.size() - 1);
}

void RabinRoller::reset() noexcept {
  fp_ = 0;
  pos_ = 0;
  filled_ = 0;
  win_.assign(win_.size(), 0);
}

std::uint64_t RabinRoller::roll(std::uint8_t in) noexcept {
  if (filled_ == win_.size()) {
    const std::uint8_t out = win_[pos_];
    fp_ -= static_cast<std::uint64_t>(out + 1) * pop_;
  } else {
    ++filled_;
  }
  win_[pos_] = in;
  if (++pos_ == win_.size()) pos_ = 0;
  // +1 biases away from the all-zeros fixed point (runs of 0x00 would
  // otherwise keep fp == 0 forever and either always or never match).
  fp_ = fp_ * kPrime + (static_cast<std::uint64_t>(in) + 1);
  return fp_;
}

std::vector<std::size_t> chunk_lengths(std::span<const std::byte> data,
                                       const ChunkParams& params) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(data.data());
  const std::size_t w = params.window == 0 ? 1 : params.window;
  const std::uint64_t leave_weight = pow_prime(w - 1) * kPrime;
  std::vector<std::size_t> lengths;
  // Each chunk's boundaries depend only on its own content (the window
  // restarts at every cut), so identical chunks split identically
  // wherever they appear.
  for (std::size_t start = 0; start < data.size();) {
    const std::size_t len =
        cut_length(b + start, data.size() - start, params, w, leave_weight);
    lengths.push_back(len);
    start += len;
  }
  return lengths;
}

}  // namespace adtm::dedup
