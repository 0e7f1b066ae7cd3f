// tbytes: a fixed-size transactionally-readable byte buffer.
//
// Compiler-based TMs instrument *every* memory access inside a transaction
// — even accesses the programmer knows are thread-private — because the
// compiler cannot prove privacy. That instrumentation is precisely the
// cost the paper measures when dedup's Compress runs inside a transaction:
// per-access overhead and read-set growth in STM, footprint (capacity) in
// HTM. tbytes reproduces that cost model at the library level: read(tx)
// pulls the buffer through the transactional word API, populating the read
// set at cache-line granularity, while read_direct() is the uninstrumented
// path used by lock-based code and deferred operations.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "stm/tx.hpp"

namespace adtm::stm {

class tbytes {
 public:
  tbytes() = default;

  explicit tbytes(std::span<const std::byte> init) { assign(init); }

  // Non-transactional initialization (before sharing).
  void assign(std::span<const std::byte> data) {
    size_ = data.size();
    // std::atomic is not copyable: build a fresh value-initialized vector
    // instead of assign().
    words_ = std::vector<detail::Word>((size_ + 7) / 8);
    const auto* src = reinterpret_cast<const unsigned char*>(data.data());
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t v = 0;
      const std::size_t take = std::min<std::size_t>(8, size_ - w * 8);
      std::memcpy(&v, src + w * 8, take);
      words_[w].store(v, std::memory_order_release);
    }
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  // Transactional read of the whole buffer into `out` (must hold size()
  // bytes). Every word goes through the transactional read barrier.
  void read(Tx& tx, std::byte* out) const {
    auto* dst = reinterpret_cast<unsigned char*>(out);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const std::uint64_t v = tx.read_word(&words_[w]);
      const std::size_t take = std::min<std::size_t>(8, size_ - w * 8);
      std::memcpy(dst + w * 8, &v, take);
    }
  }

  std::vector<std::byte> read(Tx& tx) const {
    std::vector<std::byte> out(size_);
    if (size_ > 0) read(tx, out.data());
    return out;
  }

  // Uninstrumented read: for lock-based code and deferred operations that
  // hold the owning object's TxLock.
  void read_direct(std::byte* out) const {
    auto* dst = reinterpret_cast<unsigned char*>(out);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const std::uint64_t v = words_[w].load(std::memory_order_acquire);
      const std::size_t take = std::min<std::size_t>(8, size_ - w * 8);
      std::memcpy(dst + w * 8, &v, take);
    }
  }

  std::vector<std::byte> read_direct() const {
    std::vector<std::byte> out(size_);
    if (size_ > 0) read_direct(out.data());
    return out;
  }

 private:
  std::size_t size_ = 0;
  std::vector<detail::Word> words_;
};

}  // namespace adtm::stm
