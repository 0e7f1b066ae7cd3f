// Content-defined chunking with a rolling Rabin fingerprint (LBFS-style),
// implemented from scratch.
//
// PARSEC dedup's FragmentRefine stage splits coarse fragments into
// variable-size chunks at content-defined boundaries so that identical
// content produces identical chunks regardless of alignment. We use a
// Karp–Rabin polynomial rolling hash mod 2^64 over a sliding window (pure
// multiply-add, no lookup table): a boundary is declared where
// (fingerprint & mask) == magic, subject to minimum and maximum chunk
// sizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace adtm::dedup {

struct ChunkParams {
  std::size_t window = 48;          // sliding window bytes
  std::size_t min_chunk = 1024;     // never cut before this many bytes
  std::size_t max_chunk = 32768;    // always cut at this many bytes
  std::uint64_t mask = (1u << 12) - 1;  // avg chunk ~ 4 KiB + min
  std::uint64_t magic = 0x78;       // boundary when (fp & mask) == magic
};

// Rolling Rabin fingerprint over a fixed-size window.
class RabinRoller {
 public:
  explicit RabinRoller(std::size_t window = 48) noexcept;

  // Slide one byte into the window (and the oldest byte out once the
  // window is full). Returns the fingerprint after the slide.
  std::uint64_t roll(std::uint8_t in) noexcept;

  std::uint64_t fingerprint() const noexcept { return fp_; }
  void reset() noexcept;
  std::size_t window() const noexcept { return win_.size(); }

 private:
  std::uint64_t fp_ = 0;
  std::uint64_t pop_ = 0;  // P^(window-1): weight of the byte leaving
  std::vector<std::uint8_t> win_;
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
};

// Split `data` into chunk lengths summing to data.size(). Deterministic
// for given params; identical byte sequences produce identical splits.
// The cuts are those of rolling every byte through a RabinRoller that is
// reset at each cut: a cut where len >= min_chunk and
// (fingerprint & mask) == magic, or where len reaches max_chunk.
std::vector<std::size_t> chunk_lengths(std::span<const std::byte> data,
                                       const ChunkParams& params = {});

}  // namespace adtm::dedup
