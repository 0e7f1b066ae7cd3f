// STM backend table.
//
// A Backend is the unit of algorithm selection: a stable string id, a
// display name and the Algo the Tx paths (tx.cpp) dispatch on. The six
// backends form a fixed table in a fixed order — tl2, eager, cgl,
// htmsim, norec, 2pl — which test parameter names, bench matrices and
// obs labels depend on; a backend's index in it is its Algo value.
//
// Selection is an init-time choice: stm::Config::backend names a backend
// id or display name ("tl2", "2pl", ...); ADTM_ALGO does the same from
// the environment. A transaction runs the backend that was active when
// it started, for every attempt; only stm::init, with no transactions in
// flight, changes it (e.g. between bench phases).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>

namespace adtm::stm {

struct Config;

// The algorithm a backend runs: the key the Tx paths (tx.cpp) dispatch
// on, and the backend's index in backends(). Selection is by id, never
// by this enum.
//
// TL2    — lazy versioning: writes are buffered in a redo log and published
//          at commit under per-orec locks (Dice/Shalev/Shavit TL2 with
//          TinySTM-style timestamp extension on reads).
// Eager  — encounter-time locking with an undo log (TinySTM write-through).
// CGL    — a single global lock; no instrumentation, no aborts. This is
//          both a correctness oracle and the paper's coarse-grained-lock
//          baseline. The one backend that cannot roll back or escalate.
// HTMSim — simulated best-effort hardware TM: eager conflict detection with
//          immediate abort, a capacity budget on the transaction footprint,
//          a small retry budget, and a global-lock fallback that all
//          hardware transactions subscribe to (Intel TSX + lock elision
//          structure). See DESIGN.md for the substitution rationale.
// NOrec  — no ownership records (Dalessandro/Spear/Scott PPoPP 2010): one
//          global sequence lock, value-based read validation, redo log.
//          Minimal metadata, strong privatization behaviour, commits
//          serialized on the sequence lock.
// TwoPL  — distributed two-phase locking (twopl.cpp): encounter-time
//          write locks with an undo log, pessimistic reads through
//          per-thread reader indicators, no read validation.
enum class Algo : std::uint8_t { TL2, Eager, CGL, HTMSim, NOrec, TwoPL };

namespace detail {
using Word = std::atomic<std::uint64_t>;
}

struct Backend {
  const char* id;    // stable lowercase id: "tl2", "2pl", ...
  const char* name;  // display name (obs label, test params): "TL2", "2PL"
  Algo algo;

  // The obs algo label index and trace-event algo byte.
  std::uint8_t obs_index() const noexcept {
    return static_cast<std::uint8_t>(algo);
  }
};

// Every backend, in Algo order (see the file comment). The first call
// registers their obs labels.
std::span<const Backend> backends() noexcept;

// Lookup by id or display name (exact match); null if no such backend.
const Backend* find_backend(std::string_view id_or_name) noexcept;

// The currently active backend (what new transactions will run).
const Backend* current_backend() noexcept;

namespace detail {

// Resolve `cfg`'s backend selection (Config::backend, then ADTM_ALGO,
// then TL2) and publish it as the active backend. Throws
// std::invalid_argument for an unknown name. Called by init().
const Backend* install_backend(const Config& cfg);

// The active backend, resolving the default selection exactly once if
// no init() has run yet (may throw for a bad ADTM_ALGO value).
const Backend* active_backend_or_default();

}  // namespace detail

}  // namespace adtm::stm
