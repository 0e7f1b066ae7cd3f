// Striped transactional element count.
//
// A container's size is written by every insert and remove, so one size
// tvar makes all size-changing transactions conflict with each other,
// and with every reader of whatever shares its 64-byte orec line. The
// count is therefore spread over kStripes tvars, one cache line (and so
// one orec) each: a writer touches only its own thread's stripe, and a
// reader pays for the counter only when it asks for the size.
//
// Deltas are modular. A stripe wraps when one thread removes elements
// another thread inserted; the sum over all stripes is still exact.
#pragma once

#include <array>
#include <cstddef>

#include "common/align.hpp"
#include "common/thread_id.hpp"
#include "stm/api.hpp"
#include "stm/tvar.hpp"

namespace adtm::containers {

class TxSizeCounter {
 public:
  static constexpr std::size_t kStripes = 16;

  // Adds `delta` (negative to shrink) to the calling thread's stripe.
  void add(stm::Tx& tx, std::ptrdiff_t delta) {
    stm::tvar<std::size_t>& s = *stripes_[thread_id() % kStripes];
    s.set(tx, s.get(tx) + static_cast<std::size_t>(delta));
  }

  // Consistent count inside a transaction: reads every stripe.
  std::size_t get(stm::Tx& tx) const {
    std::size_t sum = 0;
    for (const auto& s : stripes_) sum += s->get(tx);
    return sum;
  }

  // Same safety requirements as tvar::load_direct.
  std::size_t load_direct() const {
    std::size_t sum = 0;
    for (const auto& s : stripes_) sum += s->load_direct();
    return sum;
  }

 private:
  std::array<CacheAligned<stm::tvar<std::size_t>>, kStripes> stripes_{};
};

}  // namespace adtm::containers
