#include "stm/backend.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/panic.hpp"
#include "common/stats.hpp"
#include "obs/trace.hpp"
#include "stm/adaptive.hpp"
#include "stm/api.hpp"
#include "stm/backends/backends.hpp"
#include "stm/orec.hpp"
#include "stm/registry.hpp"
#include "stm/runtime.hpp"

namespace adtm::stm {

BackendRegistry::BackendRegistry() {
  // Built-ins first; each registration publishes its obs label.
  const std::uint32_t spec =
      kBackendRollback | kBackendIrrevocable | kBackendSerialGate;
  const auto add = [this](const char* id, const char* name,
                          std::uint32_t caps, Algo core) {
    Backend b;
    b.id = id;
    b.name = name;
    b.caps = caps;
    b.core = core;
    b.ops = nullptr;
    register_backend(b);
  };
  add("tl2", "TL2", spec | kBackendAdaptive, Algo::TL2);
  add("eager", "Eager", spec | kBackendInPlaceWrites, Algo::Eager);
  add("cgl", "CGL", kBackendDirectMode, Algo::CGL);
  add("htmsim", "HTMSim",
      spec | kBackendHtmLike | kBackendInPlaceWrites, Algo::HTMSim);
  add("norec", "NOrec", spec | kBackendAdaptive, Algo::NOrec);
  backends::register_extension_backends(*this);
}

const Backend* BackendRegistry::register_backend(const Backend& backend) {
  if (backend.id == nullptr || backend.name == nullptr) {
    throw std::logic_error("backend registration requires id and name");
  }
  if (backend.ops != nullptr &&
      (backend.ops->begin == nullptr || backend.ops->read_word == nullptr ||
       backend.ops->write_word == nullptr || backend.ops->commit == nullptr ||
       backend.ops->rollback == nullptr)) {
    throw std::logic_error("backend ops table is incomplete");
  }
  if (count_ >= kMaxBackends) {
    throw std::logic_error("backend registry is full");
  }
  if (find(backend.id) != nullptr || find(backend.name) != nullptr) {
    throw std::logic_error(std::string("duplicate backend id: ") +
                           backend.id);
  }
  Backend& stored = backends_[count_];
  stored = backend;
  stored.obs_index = static_cast<std::uint8_t>(count_);
  ++count_;
  obs::register_algo_label(stored.obs_index, stored.name);
  return &stored;
}

const Backend* BackendRegistry::find(
    std::string_view id_or_name) const noexcept {
  for (std::size_t i = 0; i < count_; ++i) {
    if (id_or_name == backends_[i].id || id_or_name == backends_[i].name) {
      return &backends_[i];
    }
  }
  return nullptr;
}

std::size_t BackendRegistry::size() const noexcept { return count_; }

const Backend* BackendRegistry::at(std::size_t i) const noexcept {
  return i < count_ ? &backends_[i] : nullptr;
}

BackendRegistry& backend_registry() noexcept {
  static BackendRegistry registry;
  return registry;
}

const Backend* find_backend(std::string_view id_or_name) noexcept {
  return backend_registry().find(id_or_name);
}

namespace detail {

void unify_serialization_clocks(RuntimeState& rt) noexcept {
  // The version clock (TL2/Eager/HTMSim/2PL commit timestamps) and the
  // NOrec sequence advance independently, yet both feed one downstream
  // serialization order — tmsan's opacity history keys every commit by
  // whichever clock its backend uses. Callers hold a quiescent point
  // (the serial gate, or init's no-transactions contract), so jumping
  // both clocks to a common maximum keeps commit keys monotonic across
  // a backend change: every post-switch key exceeds every pre-switch
  // key, whichever family filed it.
  const std::uint64_t clock = g_clock->load(std::memory_order_acquire);
  const std::uint64_t seq = rt.norec_seq.load(std::memory_order_acquire);
  std::uint64_t unified = std::max(clock, seq);
  unified += unified & 1;  // the sequence must stay even while unlocked
  g_clock->store(unified, std::memory_order_release);
  rt.norec_seq.store(unified, std::memory_order_release);
}

const Backend* install_backend(const Config& cfg) {
  // Resolution order: Config::backend, then ADTM_ALGO from the
  // environment, then the TL2 default. The env knob fills in when the
  // program did not choose — it does not override an explicit selection
  // (a CGL-specific test must stay CGL under `ADTM_ALGO=2pl ctest`).
  // "auto" arms the adaptive controller and starts on its default
  // candidate.
  std::string_view name = cfg.backend;
  if (name.empty()) name = runtime_config().algo;
  const bool adaptive_mode = name == "auto";
  if (name.empty() || adaptive_mode) name = "tl2";
  const Backend* b = find_backend(name);
  if (b == nullptr) {
    throw std::invalid_argument("stm: unknown backend \"" +
                                std::string(name) +
                                "\" (see stm::backend_registry())");
  }
  RuntimeState& rt = runtime();
  unify_serialization_clocks(rt);
  rt.active_backend.store(b, std::memory_order_seq_cst);
  adaptive::set_enabled(adaptive_mode);
  return b;
}

const Backend* active_backend_or_default() {
  RuntimeState& rt = runtime();
  const Backend* b = rt.active_backend.load(std::memory_order_acquire);
  if (b != nullptr) return b;
  // First transaction before any init(): resolve the default selection
  // (racing resolvers compute the same answer; the store is idempotent).
  return install_backend(rt.config);
}

}  // namespace detail

const Backend* current_backend() noexcept {
  return detail::runtime().active_backend.load(std::memory_order_acquire);
}

void switch_backend(const Backend* target) {
  if (target == nullptr) {
    throw std::logic_error("switch_backend: null target");
  }
  if (in_transaction()) {
    throw std::logic_error("switch_backend inside a transaction");
  }
  if (detail::locker_depth() != 0) {
    // The serial gate drains cross-transaction lockers; a switcher that
    // is itself a locker would wedge the gate against its own hold.
    throw std::logic_error(
        "switch_backend while holding a cross-transaction lock");
  }
  detail::RuntimeState& rt = detail::runtime();
  const Backend* cur = rt.active_backend.load(std::memory_order_acquire);
  if (cur == target) return;
  if (target->has(kBackendDirectMode) ||
      (cur != nullptr && cur->has(kBackendDirectMode))) {
    // CGL transactions serialize on their own mutex, not the serial
    // gate, so the gate cannot drain them: direct-mode backends are an
    // init-time-only choice.
    throw std::logic_error(
        "switch_backend: direct-mode backends (CGL) cannot be switched "
        "at runtime; use stm::init with no transactions in flight");
  }
  // Not a locker (checked above), so a `must` entry is always admitted.
  const detail::GateEntry entry = detail::acquire_serial_gate(true);
  ADTM_INVARIANT(entry == detail::GateEntry::Acquired,
                 "switch_backend refused at the serial gate");
  // The gate has drained every speculative transaction and rival
  // cross-transaction locker: nothing is running the old backend, and
  // transactions parked at the gate re-resolve after it opens.
  cur = rt.active_backend.load(std::memory_order_acquire);
  if (cur != target) {
    detail::unify_serialization_clocks(rt);
    rt.active_backend.store(target, std::memory_order_seq_cst);
    stats().add(Counter::BackendSwitches);
    obs::emit(obs::EventType::BackendSwitch, obs::AbortCause::None,
              target->obs_index,
              cur != nullptr ? cur->obs_index : obs::kNoAlgo);
  }
  detail::release_serial_gate();
}

void switch_backend(std::string_view id_or_name) {
  const Backend* target = find_backend(id_or_name);
  if (target == nullptr) {
    throw std::invalid_argument("switch_backend: unknown backend \"" +
                                std::string(id_or_name) + "\"");
  }
  switch_backend(target);
}

}  // namespace adtm::stm
