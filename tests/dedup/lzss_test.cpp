// LZSS codec: round-trip properties over adversarial input shapes.
#include "dedup/lzss.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <stdexcept>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "dedup/synth_input.hpp"

namespace adtm::dedup {
namespace {

TEST(Lzss, EmptyInput) {
  EXPECT_EQ(lzss_decompress_str(lzss_compress_str("")), "");
}

TEST(Lzss, SingleByte) {
  EXPECT_EQ(lzss_decompress_str(lzss_compress_str("x")), "x");
}

TEST(Lzss, ShortLiteralOnly) {
  const std::string s = "abcdefg";
  EXPECT_EQ(lzss_decompress_str(lzss_compress_str(s)), s);
}

TEST(Lzss, HighlyRepetitiveCompressesWell) {
  const std::string s(100000, 'a');
  const std::string c = lzss_compress_str(s);
  EXPECT_LT(c.size(), s.size() / 50);
  EXPECT_EQ(lzss_decompress_str(c), s);
}

TEST(Lzss, OverlappingMatchReplication) {
  // "abab..." forces matches with offset < length (RLE-style overlap).
  std::string s;
  for (int i = 0; i < 5000; ++i) s += "ab";
  EXPECT_EQ(lzss_decompress_str(lzss_compress_str(s)), s);
}

TEST(Lzss, TextLikeInputCompresses) {
  const std::string s = make_synthetic_input({.total_bytes = 200000});
  const std::string c = lzss_compress_str(s);
  EXPECT_LT(c.size(), s.size());  // real compression on text-like data
  EXPECT_EQ(lzss_decompress_str(c), s);
}

TEST(Lzss, IncompressibleRandomRoundTrips) {
  Xoshiro256 rng{11};
  std::string s(65536, '\0');
  for (auto& ch : s) ch = static_cast<char>(rng.next());
  const std::string c = lzss_compress_str(s);
  // Bounded expansion: flags add at most 1 byte per 8 literals + header.
  EXPECT_LT(c.size(), s.size() + s.size() / 8 + 16);
  EXPECT_EQ(lzss_decompress_str(c), s);
}

TEST(Lzss, MatchesAcrossWindowBoundary) {
  // Repetition spaced near the 64 KiB window limit.
  const std::string unit = make_synthetic_input(
      {.total_bytes = 60000, .dup_fraction = 0.0, .seed = 3});
  const std::string s = unit + unit + unit;
  EXPECT_EQ(lzss_decompress_str(lzss_compress_str(s)), s);
}

TEST(Lzss, BinaryWithEmbeddedNulsRoundTrips) {
  std::string s;
  for (int i = 0; i < 10000; ++i) {
    s.push_back(static_cast<char>(i % 7 == 0 ? 0 : i));
  }
  EXPECT_EQ(lzss_decompress_str(lzss_compress_str(s)), s);
}

TEST(LzssErrors, TruncatedHeaderThrows) {
  EXPECT_THROW(lzss_decompress_str("ab"), std::runtime_error);
}

TEST(LzssErrors, TruncatedBodyThrows) {
  std::string c = lzss_compress_str("hello hello hello hello");
  c.resize(c.size() - 3);
  EXPECT_THROW(lzss_decompress_str(c), std::runtime_error);
}

TEST(LzssErrors, CorruptOffsetThrows) {
  // Handcraft: raw size 4, one flag byte declaring a match, offset far
  // beyond anything written.
  std::string c;
  c += std::string("\x04\x00\x00\x00", 4);  // raw size 4
  c += static_cast<char>(0x01);             // first token is a match
  c += static_cast<char>(0xff);             // offset lo
  c += static_cast<char>(0xff);             // offset hi -> off=65536
  c += static_cast<char>(0x00);             // len = kMinMatch
  EXPECT_THROW(lzss_decompress_str(c), std::runtime_error);
}

TEST(LzssErrors, InputOf4GiBOrMoreThrowsLengthError) {
  // The header holds the size in 32 bits, so 2^32 + 1 bytes would read
  // back as 1. The span covers an inaccessible, uncommitted mapping: the
  // size check must come before any byte is read.
  const std::size_t n = (std::size_t{1} << 32) + 1;
  void* p = mmap(nullptr, n, PROT_NONE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(p, MAP_FAILED);
  EXPECT_THROW(lzss_compress({static_cast<const std::byte*>(p), n}),
               std::length_error);
  munmap(p, n);
}

// Property sweep: round trip across sizes and seeds.
class LzssRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(LzssRoundTrip, Holds) {
  const auto [size, seed] = GetParam();
  const std::string s = make_synthetic_input(
      {.total_bytes = size,
       .dup_fraction = 0.3,
       .block_bytes = 4096,
       .seed = static_cast<std::uint64_t>(seed)});
  EXPECT_EQ(lzss_decompress_str(lzss_compress_str(s)), s);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LzssRoundTrip,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{100},
                                         std::size_t{4096},
                                         std::size_t{65535},
                                         std::size_t{65536},
                                         std::size_t{65537},
                                         std::size_t{262144}),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace adtm::dedup
