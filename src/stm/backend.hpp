// Pluggable STM backend registry.
//
// A Backend is the unit of algorithm selection: a descriptor bundling a
// stable string id, capability flags, and (for backends implemented
// outside the core translation units) the per-transaction barrier entry
// points. The five built-in algorithms (TL2, Eager, CGL, HTMSim, NOrec)
// are registered as descriptors with `ops == nullptr` — the Tx hot paths
// keep their inline dispatch for them — while extension backends (2PL)
// plug in through BackendOps without touching any core algorithm file.
//
// Selection:
//   stm::Config::backend names a registry id ("tl2", "2pl", ..., or
//   "auto" for adaptive switching); ADTM_ALGO does the same from the
//   environment.
//
// Runtime switching:
//   switch_backend() swaps the active backend at a quiescent point: it
//   acquires the serial gate (draining every speculative transaction and
//   cross-transaction locker), publishes the new descriptor, emits an
//   obs backend-switch event, and releases the gate. Transactions that
//   were parked at the gate re-resolve the backend when they enter, so
//   no transaction ever runs with a torn algorithm choice. Direct-mode
//   backends (CGL) are excluded from runtime switching — CGL transactions
//   serialize on their own mutex, not the gate, so the gate cannot drain
//   them; CGL remains an init-time-only choice.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace adtm::stm {

class Tx;
struct Config;

// Core algorithm of a built-in backend: the key the Tx inline paths
// (tx.cpp) dispatch on. Selection is by registry id, never by this enum.
//
// TL2    — lazy versioning: writes are buffered in a redo log and published
//          at commit under per-orec locks (Dice/Shalev/Shavit TL2 with
//          TinySTM-style timestamp extension on reads).
// Eager  — encounter-time locking with an undo log (TinySTM write-through).
// CGL    — a single global lock; no instrumentation, no aborts. This is
//          both a correctness oracle and the paper's coarse-grained-lock
//          baseline.
// HTMSim — simulated best-effort hardware TM: eager conflict detection with
//          immediate abort, a capacity budget on the transaction footprint,
//          a small retry budget, and a global-lock fallback that all
//          hardware transactions subscribe to (Intel TSX + lock elision
//          structure). See DESIGN.md for the substitution rationale.
// NOrec  — no ownership records (Dalessandro/Spear/Scott PPoPP 2010): one
//          global sequence lock, value-based read validation, redo log.
//          Minimal metadata, strong privatization behaviour, commits
//          serialized on the sequence lock.
enum class Algo : std::uint8_t { TL2, Eager, CGL, HTMSim, NOrec };

namespace detail {
using Word = std::atomic<std::uint64_t>;
}

// --- capability flags -------------------------------------------------------

// Speculative: arbitrary bodies can roll back (cancel(), conflict aborts,
// closed nesting). Clear for direct-mode backends.
inline constexpr std::uint32_t kBackendRollback = 1u << 0;
// Supports escalation to serial-irrevocable mode mid-run.
inline constexpr std::uint32_t kBackendIrrevocable = 1u << 1;
// Uses the serial gate as its contention-management fallback.
inline constexpr std::uint32_t kBackendSerialGate = 1u << 2;
// HTM-like: small retry budget, capacity aborts, no busy-orec spinning.
inline constexpr std::uint32_t kBackendHtmLike = 1u << 3;
// Writes go in place at encounter time (undo-log rollback).
inline constexpr std::uint32_t kBackendInPlaceWrites = 1u << 4;
// Reads take pessimistic ownership (reader indicators) instead of
// optimistic validation.
inline constexpr std::uint32_t kBackendPessimisticReads = 1u << 5;
// Direct mode: uninstrumented accesses, cannot abort, excluded from
// runtime switching (CGL).
inline constexpr std::uint32_t kBackendDirectMode = 1u << 6;
// Candidate for adaptive ("auto") switching.
inline constexpr std::uint32_t kBackendAdaptive = 1u << 7;

// --- descriptor -------------------------------------------------------------

// Barrier/commit/abort entry points for backends implemented outside the
// core Tx translation unit. All five must be set when `Backend::ops` is
// non-null. They run only in speculative mode; serial/CGL escalation is
// handled by the driver before these are consulted.
struct BackendOps {
  // After the common begin bookkeeping (registry entry, snapshot,
  // liveness state). Reset per-attempt extension state here.
  void (*begin)(Tx& tx);
  std::uint64_t (*read_word)(Tx& tx, const detail::Word* addr);
  void (*write_word)(Tx& tx, detail::Word* addr, std::uint64_t value);
  // Full commit: publish, file the tmsan record, release locks, leave the
  // registry, and mark the transaction finished with its commit timestamp
  // (BackendSpi::finish_commit); the driver then quiesces.
  // May throw ConflictAbort; the driver then calls rollback.
  void (*commit)(Tx& tx);
  // Extension-state cleanup (e.g. reader indicators), called at the start
  // of the generic rollback. Must not throw.
  void (*rollback)(Tx& tx);
};

struct Backend {
  const char* id;    // stable lowercase registry id: "tl2", "2pl", ...
  const char* name;  // display name (obs label, test params): "TL2", "2PL"
  std::uint32_t caps = 0;
  // Core algorithm the Tx inline paths run when `ops == nullptr`; for
  // extension backends, the closest built-in (picks the serial-mode and
  // snapshot behavior the common begin/commit paths use).
  Algo core = Algo::TL2;
  const BackendOps* ops = nullptr;  // null for the five built-ins
  // Dense index assigned at registration; doubles as the obs algo label
  // index (obs::register_algo_label) and the trace-event algo byte.
  std::uint8_t obs_index = 0;

  bool has(std::uint32_t cap) const noexcept { return (caps & cap) != 0; }
};

// --- registry ---------------------------------------------------------------

inline constexpr std::size_t kMaxBackends = 16;

class BackendRegistry {
 public:
  // Register a backend; the id must be unique and the table not full
  // (throws std::logic_error otherwise). Returns the stored descriptor,
  // whose obs_index has been assigned. Registration is for startup
  // (static-init manifests, test setup), not concurrent with tracing.
  const Backend* register_backend(const Backend& backend);

  // Lookup by registry id or display name (exact match); null if absent.
  const Backend* find(std::string_view id_or_name) const noexcept;

  // Enumeration in registration order (the five built-ins first).
  std::size_t size() const noexcept;
  const Backend* at(std::size_t i) const noexcept;

 private:
  friend BackendRegistry& backend_registry() noexcept;
  BackendRegistry();

  Backend backends_[kMaxBackends];
  std::size_t count_ = 0;
};

// The process-wide registry. First use registers the five built-in
// algorithms and then every extension backend named in the
// src/stm/backends manifest.
BackendRegistry& backend_registry() noexcept;

// Convenience lookup; null if no such backend.
const Backend* find_backend(std::string_view id_or_name) noexcept;

// The currently active backend (what new transactions will run).
const Backend* current_backend() noexcept;

// Swap the active backend at a quiescent point (see file comment).
// Throws std::logic_error for direct-mode source or target, or a null
// target. No-op when the target is already active. Callers must not hold
// cross-transaction locks (TxLockGuard / in-flight deferred op) — the
// serial gate drains those.
void switch_backend(const Backend* target);
void switch_backend(std::string_view id_or_name);

namespace detail {

// Resolve `cfg`'s backend selection (Config::backend, then ADTM_ALGO,
// then TL2; "auto" arms the adaptive controller) and
// publish it as the active backend. Throws std::invalid_argument for an
// unknown name. Called by init().
const Backend* install_backend(const Config& cfg);

// The active backend, lazily resolving the default selection if no
// init() has run yet (may throw for a bad ADTM_ALGO value).
const Backend* active_backend_or_default();

}  // namespace detail

}  // namespace adtm::stm
