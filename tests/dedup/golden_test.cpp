// Golden output of the dedup kernels: chunking, fingerprinting and
// compression must produce exactly the bytes they always have. A faster
// kernel that drifts by one byte changes the on-disk format, so the drift
// fails here instead of passing silently.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dedup/lzss.hpp"
#include "dedup/rabin.hpp"
#include "dedup/sha1.hpp"
#include "dedup/synth_input.hpp"

namespace adtm::dedup {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

void put_u64(Sha1& h, std::uint64_t v) {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  h.update(le, sizeof(le));
}

// The chunk-length reference: roll every byte through RabinRoller and
// restart it at each cut, exactly as the chunker is specified.
std::vector<std::size_t> reference_chunk_lengths(
    std::span<const std::byte> data, const ChunkParams& params) {
  std::vector<std::size_t> lengths;
  RabinRoller roller(params.window);
  std::size_t chunk_start = 0;
  for (std::size_t i = 0; i < data.size();) {
    const std::uint64_t fp = roller.roll(static_cast<std::uint8_t>(data[i]));
    ++i;
    const std::size_t len = i - chunk_start;
    if ((len >= params.min_chunk && (fp & params.mask) == params.magic) ||
        len >= params.max_chunk) {
      lengths.push_back(len);
      chunk_start = i;
      roller.reset();
    }
  }
  if (chunk_start < data.size()) lengths.push_back(data.size() - chunk_start);
  return lengths;
}

// Pinned from the byte-at-a-time kernels that first defined the format.
// Never regenerate these from the code under test.
constexpr std::size_t kGoldenChunks = 823;
constexpr const char* kGoldenDigest =
    "b1e9bf65bf47959c52e15276ee59b13a12d8df65";

// SHA-1 over the chunk lengths (u64 LE) of a 4 MiB seed-1 input, then
// each chunk's SHA-1 and its length-prefixed LZSS output, in order.
TEST(DedupGolden, KernelOutputMatchesPinnedDigest) {
  const std::string input =
      make_synthetic_input({.total_bytes = 4 << 20, .seed = 1});
  const auto lengths = chunk_lengths(as_bytes(input));

  Sha1 h;
  for (const std::size_t len : lengths) put_u64(h, len);
  std::size_t offset = 0;
  for (const std::size_t len : lengths) {
    const auto chunk = as_bytes(input).subspan(offset, len);
    offset += len;
    const Sha1Digest d = sha1(chunk);
    h.update(d.bytes.data(), d.bytes.size());
    const std::vector<std::byte> packed = lzss_compress(chunk);
    put_u64(h, packed.size());
    h.update(packed);
  }
  EXPECT_EQ(offset, input.size());
  EXPECT_EQ(lengths.size(), kGoldenChunks);
  EXPECT_EQ(h.finish().hex(), kGoldenDigest);
}

TEST(DedupGolden, ChunkLengthsMatchRollerReference) {
  const std::string input =
      make_synthetic_input({.total_bytes = 256 << 10, .seed = 2});
  const std::vector<ChunkParams> cases = {
      {},  // defaults
      // min_chunk < window
      {.window = 64, .min_chunk = 16, .max_chunk = 4096, .mask = 255,
       .magic = 3},
      // max_chunk < min_chunk
      {.window = 48, .min_chunk = 2048, .max_chunk = 1000},
      // max_chunk == 0
      {.window = 48, .min_chunk = 0, .max_chunk = 0},
      // window == 1
      {.window = 1, .min_chunk = 8, .max_chunk = 600, .mask = 31,
       .magic = 7},
      // window 0 (treated as 1)
      {.window = 0, .min_chunk = 0, .max_chunk = 300, .mask = 7, .magic = 2},
      // min_chunk == window
      {.window = 300, .min_chunk = 300, .max_chunk = 20000, .mask = 1023,
       .magic = 5},
      // one tested length per chunk
      {.window = 48, .min_chunk = 49, .max_chunk = 50, .mask = 1,
       .magic = 1},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{47}, std::size_t{5000},
                                input.size()}) {
      const auto data = as_bytes(input).first(n);
      EXPECT_EQ(chunk_lengths(data, cases[c]),
                reference_chunk_lengths(data, cases[c]))
          << "params case " << c << ", " << n << " bytes";
    }
  }
}

}  // namespace
}  // namespace adtm::dedup
