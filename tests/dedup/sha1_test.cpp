// SHA-1 against the FIPS 180-1 / NIST test vectors.
#include "dedup/sha1.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"

namespace adtm::dedup {
namespace {

TEST(Sha1, EmptyString) {
  EXPECT_EQ(sha1(std::string{}).hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(sha1(std::string{"abc"}).hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, NistTwoBlockMessage) {
  EXPECT_EQ(
      sha1(std::string{
               "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})
          .hex(),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  const std::string input(1000000, 'a');
  EXPECT_EQ(sha1(input).hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, QuickBrownFox) {
  EXPECT_EQ(sha1(std::string{"The quick brown fox jumps over the lazy dog"})
                .hex(),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const std::string data(12345, 'x');
  Sha1 h;
  // Feed in awkward pieces crossing block boundaries.
  std::size_t i = 0;
  std::size_t step = 1;
  while (i < data.size()) {
    const std::size_t take = std::min(step, data.size() - i);
    h.update(data.data() + i, take);
    i += take;
    step = (step * 7 + 3) % 200 + 1;
  }
  EXPECT_EQ(h.finish().hex(), sha1(data).hex());
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.update("garbage", 7);
  h.reset();
  h.update("abc", 3);
  EXPECT_EQ(h.finish().hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha1(std::string{"aaaa"}), sha1(std::string{"aaab"}));
}

TEST(Sha1, Prefix64BigEndianOfFirstBytes) {
  const Sha1Digest d = sha1(std::string{"abc"});
  // a9993e364706816a as an integer.
  EXPECT_EQ(d.prefix64(), 0xa9993e364706816aULL);
}

TEST(Sha1, LengthBoundaryCases) {
  // Messages around the 55/56/64 padding boundaries.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u}) {
    const std::string data(len, 'q');
    Sha1 h;
    h.update(data.data(), len);
    EXPECT_EQ(h.finish(), sha1(data)) << "len=" << len;
  }
}

// The SHA-NI block function must agree with the portable reference on
// runs of whole blocks read straight from unaligned input, and on the
// padding blocks Sha1 builds in its own buffer.
TEST(Sha1, ShaniMatchesPortable) {
  if (!detail::sha1_shani_supported()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions; only the portable path "
                    "runs here";
  }
  EXPECT_EQ(detail::sha1_blocks(), &detail::sha1_blocks_shani);
  for (const std::string& vector :
       {std::string{}, std::string{"abc"},
        std::string{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"},
        std::string(1000000, 'a')}) {
    EXPECT_EQ(detail::sha1_with(detail::sha1_blocks_shani, vector.data(),
                                vector.size()),
              detail::sha1_with(detail::sha1_blocks_portable, vector.data(),
                                vector.size()))
        << "len=" << vector.size();
  }

  constexpr std::size_t kMaxLen = 4096;
  constexpr std::size_t kOffsets = 16;
  std::vector<std::uint8_t> buf(kMaxLen + kOffsets);
  Xoshiro256 rng(2024);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t off = 0; off < kOffsets; ++off) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::uint8_t* p = buf.data() + off;
      const Sha1Digest fast =
          detail::sha1_with(detail::sha1_blocks_shani, p, len);
      const Sha1Digest ref =
          detail::sha1_with(detail::sha1_blocks_portable, p, len);
      if (fast != ref) {
        ADD_FAILURE() << "offset " << off << " len " << len << ": "
                      << fast.hex() << " != " << ref.hex();
        return;
      }
    }
  }
}

}  // namespace
}  // namespace adtm::dedup
