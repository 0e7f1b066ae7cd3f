// SHA-1 (FIPS 180-1), implemented from scratch.
//
// PARSEC dedup fingerprints chunks with SHA-1 to detect duplicates; we do
// the same. SHA-1 is not collision-resistant enough for adversarial inputs
// anymore, but for content-addressed deduplication of benign data it is
// exactly what the original benchmark uses.
//
// Two block functions compute the compression function: a portable one
// (the reference) and, on x86-64 CPUs with the SHA extensions, one built
// on the SHA-NI instructions. The choice is made once, from CPUID; both
// produce the same digests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace adtm::dedup {

struct Sha1Digest {
  std::array<std::uint8_t, 20> bytes{};

  bool operator==(const Sha1Digest&) const = default;
  auto operator<=>(const Sha1Digest&) const = default;

  // First 8 bytes as an integer — used as the dedup hash-table index.
  std::uint64_t prefix64() const noexcept;

  std::string hex() const;
};

namespace detail {

// Hash `blocks` consecutive 64-byte blocks at `data` into `state`.
using Sha1BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                             std::size_t blocks) noexcept;

void sha1_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t blocks) noexcept;

// The SHA-NI block function. Call it only when sha1_shani_supported();
// outside x86-64 it is the portable one.
void sha1_blocks_shani(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) noexcept;
bool sha1_shani_supported() noexcept;

// The block function every Sha1 uses, chosen once from CPUID.
Sha1BlockFn sha1_blocks() noexcept;

// One-shot digest through a given block function (tests and benches
// compare the two paths with it).
Sha1Digest sha1_with(Sha1BlockFn blocks, const void* data,
                     std::size_t len) noexcept;

}  // namespace detail

// Incremental hasher.
class Sha1 {
 public:
  Sha1() noexcept : Sha1(detail::sha1_blocks()) {}

  void reset() noexcept;
  void update(const void* data, std::size_t len) noexcept;
  void update(std::span<const std::byte> data) noexcept {
    update(data.data(), data.size());
  }
  Sha1Digest finish() noexcept;

 private:
  friend Sha1Digest detail::sha1_with(detail::Sha1BlockFn, const void*,
                                      std::size_t) noexcept;
  explicit Sha1(detail::Sha1BlockFn blocks) noexcept : blocks_(blocks) {
    reset();
  }

  detail::Sha1BlockFn blocks_;
  std::uint32_t h_[5];
  std::uint64_t total_len_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
};

// One-shot convenience.
Sha1Digest sha1(const void* data, std::size_t len) noexcept;
Sha1Digest sha1(std::span<const std::byte> data) noexcept;
Sha1Digest sha1(const std::string& data) noexcept;

}  // namespace adtm::dedup
