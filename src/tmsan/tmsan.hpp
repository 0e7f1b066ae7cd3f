// tmsan: the TM-aware race & atomicity sanitizer.
//
// Plain TSan cannot check a transactional memory: it either drowns in
// false positives on orec/seqlock traffic or, suppressed, misses exactly
// the bugs that matter. tmsan sits inside the runtime's own barriers and
// checks the three contracts the runtime actually promises:
//
//  1. Mixed-mode isolation — a non-transactional (direct) load or store
//     to a word that a concurrently running transaction also accesses is
//     a mixed-mode/publication race unless the access is privatized
//     (the owning transaction has committed/aborted — quiescence-correct
//     privatization passes naturally) or is part of a deferred epilogue
//     (governed by contract 2 instead). Reported with both stack
//     contexts.
//
//  2. The deferral contract (the paper's atomicity guarantee) — a
//     deferred epilogue may touch only state covered by a TxLock its
//     atomic_defer acquired; and a TxLock must not reach the free state
//     while an epilogue registered under it is still pending. Coverage
//     is declared with cover() (the test-side analogue of the paper's
//     `deferrable class` annotation).
//
//  3. Opacity — every transaction, committed OR aborted, must have
//     observed a consistent snapshot. Each transaction's value-level
//     read set is checked against a global per-word version history
//     built from committed write sets: if no single point in commit
//     order could have produced all observed values, the snapshot was
//     inconsistent.
//
// Always compiled, runtime gated (the obs-layer pattern): every barrier
// hook is one relaxed atomic load and a predicted-not-taken branch while
// disabled. Enable with ADTM_TMSAN=1 / ADTM_TMSAN_OPACITY=1 (read at
// stm::init), adtm::configure(), or the explicit enable() below.
//
// This library depends only on adtm_common; the stm and defer layers call
// into it, never the reverse.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace adtm::tmsan {

// Which checkers are armed; a bitmask so tests can plant a bug, prove the
// disabled stub misses it, then arm one checker and prove it is caught.
enum CheckMask : std::uint32_t {
  kCheckNone = 0,
  kCheckRace = 1u << 0,      // mixed-mode/publication races
  kCheckDeferral = 1u << 1,  // deferral contract (coverage + early release)
  kCheckOpacity = 1u << 2,   // per-transaction snapshot consistency
  kCheckAll = kCheckRace | kCheckDeferral | kCheckOpacity,
};

enum class ViolationKind : std::uint8_t {
  MixedModeRace,     // raw access raced a live transaction's access
  DeferralUncovered, // epilogue touched state outside its lock set
  EarlyLockRelease,  // TxLock freed with a covered epilogue pending
  OpacityViolation,  // a transaction observed an inconsistent snapshot
};

const char* violation_name(ViolationKind k) noexcept;

struct Violation {
  ViolationKind kind;
  const void* addr = nullptr;   // word (or lock) the report is about
  std::uint32_t tid_a = 0;      // reporting side (raw accessor / tx / releaser)
  std::uint32_t tid_b = 0;      // other side (tx / epilogue owner), if known
  std::string detail;           // human-readable one-liner
  std::string stack_a;          // reporting side's captured stack
  std::string stack_b;          // other side's stack (mixed-mode only)
};

namespace detail {
extern std::atomic<std::uint32_t> g_mode;

void raw_access_slow(const void* addr, bool is_write) noexcept;
void tx_alloc_slow(const void* base, std::size_t bytes) noexcept;
void tx_access_slow(const void* addr, std::uint64_t value,
                    bool is_write) noexcept;
std::size_t tx_read_mark_slow() noexcept;
}  // namespace detail

// The runtime gate every barrier hook tests first. Relaxed: arming the
// sanitizer mid-run is best-effort by design (like obs::enabled()).
inline bool active() noexcept {
  return detail::g_mode.load(std::memory_order_relaxed) != 0;
}

inline bool active(CheckMask m) noexcept {
  return (detail::g_mode.load(std::memory_order_relaxed) & m) != 0;
}

// --- control ---------------------------------------------------------------

// Arm the given checkers (OR-ed into the current mask). Allocates the
// shadow table on first use; idempotent.
void enable(std::uint32_t mask = kCheckAll);

// Disarm the given checkers (default: all). Recorded violations are kept
// until reset().
void disable(std::uint32_t mask = kCheckAll);

// Drop all recorded violations, the shadow table contents, the opacity
// history, and coverage declarations. Call at test-phase boundaries, not
// concurrently with transactions.
void reset();

// --- reports ---------------------------------------------------------------

std::size_t violation_count();
std::size_t violation_count(ViolationKind k);
std::vector<Violation> violations();

// Reads whose value never appears in the opacity history (pre-history
// baseline disagreements, direct-mode interleavings). Counted, treated as
// consistent — the checker reports only provable inconsistency.
std::uint64_t opacity_unverifiable_reads();

// Human-readable rendering of every recorded violation ("" when clean).
std::string report();

// --- coverage declarations (deferral contract) -----------------------------

// Declare that [base, base + bytes) is protected by `lock` (a TxLock
// address). An epilogue whose lock set lacks `lock` and touches a covered
// word is reported. Coverage persists until reset().
void cover(const void* base, std::size_t bytes, const void* lock);

// --- barrier hooks (called by the stm / defer layers) ----------------------
//
// Every hook is inline-gated: disabled cost is one relaxed load + branch.

// Non-transactional (direct) access to a transactional word.
inline void on_raw_read(const void* addr) noexcept {
  if (active()) detail::raw_access_slow(addr, false);
}
inline void on_raw_write(const void* addr) noexcept {
  if (active()) detail::raw_access_slow(addr, true);
}

// Validated transactional access (speculative or direct-mode) to a word.
inline void on_tx_read(const void* addr, std::uint64_t value) noexcept {
  if (active()) detail::tx_access_slow(addr, value, false);
}
inline void on_tx_write(const void* addr, std::uint64_t value) noexcept {
  if (active()) detail::tx_access_slow(addr, value, true);
}

// Memory handed out by a transactional allocation: stale per-word state
// (opacity history, race shadow marks) under the range belongs to a freed
// previous occupant and is dropped.
inline void on_tx_alloc(const void* base, std::size_t bytes) noexcept {
  if (active()) detail::tx_alloc_slow(base, bytes);
}

// Transaction lifecycle. `direct_mode` transactions (serial/CGL) skip
// opacity read validation — they are serialized by construction — but
// their writes still enter the history other transactions validate
// against. `primary_key` orders committed writers: the commit timestamp
// (TL2/Eager/HTMSim), the post-publish sequence (NOrec), or 0 for
// direct-mode commits (ordered by hook arrival, which their global
// gate/mutex serializes).
void on_tx_begin(bool direct_mode) noexcept;
void on_tx_commit(std::uint64_t primary_key) noexcept;
void on_tx_abort() noexcept;

// A closed-nested scope rolled back: this transaction's tmsan logs no
// longer match what will commit — skip its opacity bookkeeping entirely
// (never report from partial data).
void on_nested_abort() noexcept;

// A TxLock waiter parked in place resumes its attempt instead of
// re-executing it. tx_read_mark() is taken before the lock call reads the
// lock; on_tx_resume(mark) drops the reads logged since, which the
// attempt makes again at its fresh snapshot. The reads before the mark
// stay checked. Raw accesses made while the attempt was parked are
// ordered before it by then (it re-validated), so they no longer count
// as concurrent with it. A mark taken while the sanitizer was off skips
// the attempt's opacity check (never report from partial data).
inline constexpr std::size_t kNoReadMark = ~std::size_t{0};
inline std::size_t tx_read_mark() noexcept {
  return active() ? detail::tx_read_mark_slow() : kNoReadMark;
}
void on_tx_resume(std::size_t mark) noexcept;

// Deferral contract. A registering transaction calls on_defer_registered
// inside the transaction (after acquiring the locks) and pairs it with
// on_defer_cancelled from an abort hook; the driver wraps the epilogue in
// epilogue_begin/epilogue_end. `locks` are TxLock addresses.
void on_defer_registered(const void* const* locks, std::size_t n) noexcept;
void on_defer_cancelled(const void* const* locks, std::size_t n) noexcept;
void epilogue_begin(const void* const* locks, std::size_t n) noexcept;
void epilogue_end(const void* const* locks, std::size_t n) noexcept;

// A TxLock reached its free transition (depth 1 -> 0), called at the
// release site inside the transaction. Reports EarlyLockRelease while an
// epilogue registered under the lock is still pending — the epilogue's
// own release is clean because epilogue_end withdraws the pend first.
void on_lock_freed(const void* lock) noexcept;

// Suppress raw-access checking for deliberate, benign racy reads (lock
// metadata sampled by the watchdog / wait-graph: owner_of, orphaned,
// held_by_me, poisoned). Nestable, thread-local.
class ScopedRawIgnore {
 public:
  ScopedRawIgnore() noexcept;
  ~ScopedRawIgnore();
  ScopedRawIgnore(const ScopedRawIgnore&) = delete;
  ScopedRawIgnore& operator=(const ScopedRawIgnore&) = delete;
};

}  // namespace adtm::tmsan
