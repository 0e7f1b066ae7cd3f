// Transaction tracing, abort taxonomy and per-lock statistics (the
// observability layer): every off-by-default diagnostic, behind the one
// gate enabled(). stats() stays the always-on counter core.
//
// Always compiled, runtime gated: every instrumentation point in the
// runtime is a single relaxed atomic load and a predicted-not-taken
// branch while tracing is disabled, so the layer can ship enabled-capable
// in production builds (micro_stm_ops proves the disabled delta).
//
// Architecture:
//  * emit() appends a fixed-size 32-byte TraceEvent to the calling
//    thread's lock-free SPSC ring buffer (producer: the thread; consumer:
//    the collector) and updates the thread's own summary aggregates. A
//    full ring drops the newest event and counts the drop — tracing
//    never blocks on the hot path.
//  * A background collector drains the rings periodically (and on
//    demand) into a bounded in-memory buffer; overflow there is likewise
//    dropped and counted.
//  * write_chrome_trace() renders the buffer as Chrome trace_event JSON
//    (load in Perfetto / chrome://tracing); summary() sums the per-thread
//    aggregates and the per-lock table into the machine-readable run
//    summary (common/stats LatencyHistogram percentiles).
//  * The watchdog appends recent_tail() and the lock lines to stall
//    reports, so a stall diagnosis comes with the events leading up to it.
//
// Knobs (see adtm::RuntimeConfig): ADTM_TRACE (the gate), ADTM_TRACE_RING,
// ADTM_TRACE_MAX_EVENTS, ADTM_TRACE_OUT.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace adtm::obs {

// One entry per lifecycle event the runtime records. Keep event_name()
// in sync.
enum class EventType : std::uint8_t {
  TxBegin,        // arg1 = attempt number
  TxCommit,       // arg0 = attempt duration ns, arg1 = commit-phase ns
  TxAbort,        // cause = AbortCause, arg1 = attempt number
  RetryPark,      // thread parked in a retry wait
  RetryWake,      // arg0 = park duration ns, arg1 = 1 on deadline expiry
  SerialEnter,    // attempt escalated to serial-irrevocable mode
  DeferEnqueue,   // arg1 = number of Deferrable objects locked
  EpilogueBegin,  // deferred operation started post-commit
  EpilogueEnd,    // arg0 = epilogue duration ns
  LockPark,       // arg0 = TxLock address; waiter parked on it
  LockWake,       // arg0 = wait duration ns; park on a TxLock ended
  IoComplete,     // arg0 = bytes, arg1 = errno (0 = success)
  WalFlush,       // arg0 = records flushed, arg1 = total fsync count
  kCount
};

const char* event_name(EventType t) noexcept;

// Why a transaction attempt rolled back — the structured taxonomy carried
// by every TxAbort event and aggregated per algorithm in the run summary.
// Keep abort_cause_name() in sync.
enum class AbortCause : std::uint8_t {
  None,                   // not an abort event
  ConflictLockBusy,       // busy-orec or reader-drain spin budget exhausted
  ConflictValidation,     // read-set validation / snapshot extension failed
  ConflictNorecValue,     // NOrec value-based validation failed
  Capacity,               // HTMSim footprint exceeded the capacity budget
  Explicit,               // stm::cancel()
  SerialRestart,          // become_irrevocable() rollback before serial re-run
  Timeout,                // deadline-aware retry expired (RetryTimeout)
  Deadlock,               // wait-graph cycle (DeadlockError) unwound the tx
  Exception,              // a user exception unwound the transaction
  kCount
};

const char* abort_cause_name(AbortCause c) noexcept;

// Fixed-size POD record; 32 bytes so a ring slot never straddles more
// than one cache line pair and the collector copies with memcpy cost.
struct TraceEvent {
  std::uint64_t ts_ns;  // now_ns() at the event
  std::uint64_t arg0;   // event-specific (durations, addresses, bytes)
  std::uint32_t arg1;   // event-specific (attempt, errno, counts)
  std::uint32_t tid;    // dense thread id (common/thread_id)
  EventType type;
  AbortCause cause;
  std::uint8_t algo;    // backend obs_index, kNoAlgo when not applicable
  std::uint8_t reserved;
};
static_assert(sizeof(TraceEvent) == 32, "TraceEvent must stay 32 bytes");

inline constexpr std::uint8_t kNoAlgo = 0xFF;

// Upper bound on registered TM backends the trace layer can label and
// aggregate per-algorithm. The stm backend registry assigns each backend
// a dense index < kMaxAlgos at registration and publishes its display
// name here (obs cannot depend on stm — the dependency runs the other
// way). Indices without a registered name render as "-".
inline constexpr std::size_t kMaxAlgos = 16;

// Publish the display label for backend index `idx`. `name` must have
// process lifetime (the registry passes string literals). Called at
// backend registration, before any event with that index is emitted.
void register_algo_label(std::uint8_t idx, const char* name) noexcept;

namespace detail {
extern std::atomic<bool> g_trace_on;
void emit_slow(EventType type, AbortCause cause, std::uint8_t algo,
               std::uint64_t arg0, std::uint32_t arg1) noexcept;
}  // namespace detail

// The runtime gate. Hot paths test this once per event site.
inline bool enabled() noexcept {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

// Record one event. No-op (one load + branch) while disabled; never
// blocks or throws while enabled (a thread's first event allocates its
// block; a failed allocation is a counted drop).
inline void emit(EventType type, AbortCause cause = AbortCause::None,
                 std::uint8_t algo = kNoAlgo, std::uint64_t arg0 = 0,
                 std::uint32_t arg1 = 0) noexcept {
  if (!enabled()) return;
  detail::emit_slow(type, cause, algo, arg0, arg1);
}

// --- per-lock wait/hold statistics (fed by TxLock) -------------------------
//
// A wait runs from the first park on a lock to the acquire or subscribe
// that passes it (re-executions keep the start); a hold, from the commit
// that takes the lock to the commit that frees it. One claim-once table
// of kLockEntries locks; samples of further locks are dropped, counted.

inline constexpr std::size_t kLockEntries = 256;

namespace detail {
struct LockWait {
  const void* lock = nullptr;
  std::uint64_t since_ns = 0;
};
extern thread_local constinit LockWait t_lock_wait;  // the armed wait
void lock_wait_begin_slow(const void* lock) noexcept;
void lock_wait_end_slow(const void* lock) noexcept;
}  // namespace detail

// Block site: emits LockPark and starts timing, unless already timing.
inline void lock_wait_begin(const void* lock) noexcept {
  if (!enabled()) return;
  detail::lock_wait_begin_slow(lock);
}

// Acquire/subscribe site: ends a wait timed on `lock`, emits LockWake.
inline void lock_wait_end(const void* lock) noexcept {
  if (detail::t_lock_wait.lock != lock) return;
  detail::lock_wait_end_slow(lock);
}

// The outermost transaction ended: a wait it never ended (a deadline, a
// cancel, a DeadlockError, a re-execution that left the lock alone) is
// dropped, not charged to a later acquire.
inline void lock_wait_abandon() noexcept {
  if (detail::t_lock_wait.lock != nullptr) detail::t_lock_wait = {};
}

// Commit hooks of the acquire that takes `lock` and of the release that
// frees it; registered only while enabled().
void lock_hold_begin(const void* lock);
void lock_hold_end(const void* lock) noexcept;

// --- control ---------------------------------------------------------------

// Turn tracing on: opens the gate, starts the background collector, and
// (once) registers the process-exit Chrome-trace writer when
// RuntimeConfig::trace_out is nonempty. Idempotent.
void enable();

// Close the gate, stop the collector after a final drain. Events already
// collected are retained until clear(). Idempotent.
void disable();

// Drop every collected event, drop counter, summary aggregate and lock
// entry (the per-thread rings are drained and discarded too). For test
// isolation and phase boundaries; not safe concurrently with tracing
// threads.
void clear();

// Pull all per-thread rings into the collector's buffer now (also done
// periodically by the collector thread and by the render functions).
void drain();

// Number of events currently held by the collector.
std::size_t collected_count();

// Events lost to full rings, collector overflow and failed thread-block
// allocations since clear().
std::uint64_t dropped_count();

// --- rendering -------------------------------------------------------------

// Chrome trace_event JSON (the "JSON Object Format": {"traceEvents":
// [...]}). Commit, epilogue, retry-park and lock-wait events render as
// complete ("X") duration events; the rest as instants.
std::string chrome_trace_json();

// Write chrome_trace_json() to `path`; false on I/O failure.
bool write_chrome_trace(const std::string& path);

// Human-readable rendering of the last `n` collected events, newest
// last — the tail the watchdog attaches to stall reports.
std::string recent_tail(std::size_t n);

// --- run summary -----------------------------------------------------------

struct AlgoSummary {
  std::string algo;                  // "TL2", "Eager", ...
  std::uint64_t commits = 0;
  std::uint64_t aborts[static_cast<std::size_t>(AbortCause::kCount)] = {};
  std::uint64_t total_aborts = 0;
  // Percentiles from the LatencyHistogram aggregates (ns).
  std::uint64_t tx_p50 = 0, tx_p99 = 0;          // begin -> commit end
  std::uint64_t commit_p50 = 0, commit_p99 = 0;  // commit phase only
};

struct LockSummary {
  const void* lock = nullptr;        // the TxLock's address
  std::uint64_t waits = 0, wait_p50 = 0, wait_p99 = 0;  // ns
  std::uint64_t holds = 0, hold_p50 = 0, hold_p99 = 0;  // ns
};

struct RunSummary {
  std::vector<AlgoSummary> algos;    // only algorithms that ran
  std::uint64_t epilogues = 0;
  std::uint64_t epilogue_p50 = 0, epilogue_p99 = 0;
  std::uint64_t events = 0;          // collected
  std::uint64_t dropped = 0;
  std::vector<LockSummary> locks;    // only locks with a sample
  std::uint64_t locks_dropped = 0;   // samples of locks the table lacked
  // stats() counter deltas for the traced window: total(c) minus the
  // baseline snapshotted at enable() (off->on) and clear(). One entry per
  // Counter, in declaration order, named by counter_name().
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

// Sum of everything recorded since clear() (independent of the
// ring/collector path, so ring drops never skew the breakdown). Safe
// while threads record.
RunSummary summary();

// The summary as machine-readable JSON (the BENCH_*-style run record).
std::string summary_json();

}  // namespace adtm::obs
