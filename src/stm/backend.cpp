#include "stm/backend.hpp"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "stm/orec.hpp"
#include "stm/runtime.hpp"

namespace adtm::stm {

namespace {

// Indexed by Algo: a backend's position is its Algo value (and so its
// obs label index).
constexpr Backend kBackends[] = {
    {"tl2", "TL2", Algo::TL2},          {"eager", "Eager", Algo::Eager},
    {"cgl", "CGL", Algo::CGL},          {"htmsim", "HTMSim", Algo::HTMSim},
    {"norec", "NOrec", Algo::NOrec},    {"2pl", "2PL", Algo::TwoPL},
};

constexpr bool indexed_by_algo() {
  for (std::size_t i = 0; i < std::size(kBackends); ++i) {
    if (static_cast<std::size_t>(kBackends[i].algo) != i) return false;
  }
  return true;
}
static_assert(indexed_by_algo(), "kBackends must be in Algo order");

}  // namespace

std::span<const Backend> backends() noexcept {
  static const bool labels = [] {
    for (const Backend& b : kBackends) {
      obs::register_algo_label(b.obs_index(), b.name);
    }
    return true;
  }();
  (void)labels;
  return kBackends;
}

const Backend* find_backend(std::string_view id_or_name) noexcept {
  for (const Backend& b : backends()) {
    if (id_or_name == b.id || id_or_name == b.name) return &b;
  }
  return nullptr;
}

namespace detail {

void unify_serialization_clocks(RuntimeState& rt) noexcept {
  // The version clock (TL2/Eager/HTMSim/2PL commit timestamps) and the
  // NOrec sequence advance independently, yet both feed one downstream
  // serialization order — tmsan's opacity history keys every commit by
  // whichever clock its backend uses. init() runs with no transactions
  // in flight, so jumping both clocks to a common maximum keeps commit
  // keys monotonic across a backend change: every key filed after the
  // change exceeds every key filed before it, whichever family filed it.
  //
  // The quiescent point, not these orders, is what makes the plain
  // load/store pairs safe: no commit can advance either clock between
  // them. The orders only carry the usual clock edges.
  // pairs-with: clock_advance()'s acq_rel fetch_add (orec.hpp) by the
  // last writer commit before the quiescent point.
  const std::uint64_t clock = g_clock->load(std::memory_order_acquire);
  // pairs-with: commit_norec()'s release store of the even sequence.
  const std::uint64_t seq = rt.norec_seq.load(std::memory_order_acquire);
  std::uint64_t unified = std::max(clock, seq);
  unified += unified & 1;  // the sequence must stay even while unlocked
  // pairs-with: clock_now()'s acquire load (orec.hpp) at the next
  // begin() snapshot.
  g_clock->store(unified, std::memory_order_release);
  // pairs-with: norec_snapshot()'s acquire load (tx.cpp) at the next
  // NOrec begin().
  rt.norec_seq.store(unified, std::memory_order_release);
}

const Backend* install_backend(const Config& cfg) {
  // Resolution order: Config::backend, then ADTM_ALGO from the
  // environment, then the TL2 default. The env knob fills in when the
  // program did not choose — it does not override an explicit selection
  // (a CGL-specific test must stay CGL under `ADTM_ALGO=2pl ctest`).
  std::string_view name = cfg.backend;
  if (name.empty()) name = runtime_config().algo;
  if (name.empty()) name = "tl2";
  const Backend* b = find_backend(name);
  if (b == nullptr) {
    throw std::invalid_argument("stm: unknown backend \"" +
                                std::string(name) +
                                "\" (see stm::backends())");
  }
  RuntimeState& rt = runtime();
  unify_serialization_clocks(rt);
  // pairs-with: the acquire loads of active_backend in
  // active_backend_or_default() and current_backend(): a thread that
  // sees `b` also sees the unified clocks.
  rt.active_backend.store(b, std::memory_order_seq_cst);
  return b;
}

const Backend* active_backend_or_default() {
  RuntimeState& rt = runtime();
  // pairs-with: the seq_cst store of active_backend in install_backend().
  const Backend* b = rt.active_backend.load(std::memory_order_acquire);
  if (b != nullptr) return b;
  // First transaction before any init(): resolve the default selection
  // exactly once. install_backend() unifies the clocks with plain
  // load/store pairs, which is only safe before any transaction starts; a
  // second resolver running it after the first one's transaction began
  // could move the clock backwards. call_once makes racing first
  // transactions wait for the one resolution instead (a throw leaves the
  // flag unset, so the next transaction retries).
  static std::once_flag resolved;
  std::call_once(resolved, [&rt] {
    // pairs-with: an init() that ran since the load above.
    if (rt.active_backend.load(std::memory_order_acquire) == nullptr) {
      install_backend(rt.config);
    }
  });
  // pairs-with: install_backend()'s store, whether this thread or the
  // one call_once let through made it (call_once orders it before us).
  return rt.active_backend.load(std::memory_order_acquire);
}

}  // namespace detail

const Backend* current_backend() noexcept {
  // pairs-with: the seq_cst store in install_backend().
  return detail::runtime().active_backend.load(std::memory_order_acquire);
}

}  // namespace adtm::stm
