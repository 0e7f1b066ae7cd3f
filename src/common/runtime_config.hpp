// Process-wide runtime configuration, resolved once.
//
// Every ADTM_* environment knob is read in one place — here — instead of
// scattered env_u64 calls at each subsystem's first use. The resolved
// struct is immutable after startup unless adtm::configure() replaces it
// programmatically, which is how tests override knobs without mutating
// the process environment.
//
// Resolution order: the first call to runtime_config() (typically from
// stm::init or a subsystem singleton) snapshots the environment; a later
// configure() replaces the snapshot and pushes the knob that gates a live
// singleton (tracing, which also gates per-lock stats). Subsystems that
// read their knobs at each start — the watchdog (WatchdogOptions), the
// contention manager (stm::init) — pick up the new values naturally.
//
// The full knob table lives in README.md ("Runtime configuration").
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace adtm {

struct RuntimeConfig {
  // --- backend selection (stm) ---------------------------------------
  // STM backend by id ("tl2", "eager", "cgl", "htmsim", "norec",
  // "2pl") or display name. Empty defers to the stm::Config passed to
  // stm::init. [ADTM_ALGO]
  std::string algo;

  // --- contention management (stm) -----------------------------------
  // Consecutive conflict-abort streak (across transactions) at which a
  // thread's next transaction escalates to serial mode; 0 disables it.
  // [ADTM_STARVATION_THRESHOLD]
  std::uint32_t starvation_threshold = 64;

  // --- diagnostics (liveness) ----------------------------------------
  // Park duration after which the watchdog flags a thread as stalled.
  // [ADTM_STALL_BUDGET_MS]
  std::uint64_t stall_budget_ms = 2000;
  // Watchdog sampling period. [ADTM_WATCHDOG_INTERVAL_MS]
  std::uint64_t watchdog_interval_ms = 200;
  // Watchdog enforcement policy: "report", "poison-orphans",
  // "reap-deferred", or "enforce". [ADTM_WATCHDOG_ACTION]
  std::string watchdog_action = "report";
  // Stall budgets before a deferred op is reaped. [ADTM_REAP_BUDGETS]
  std::uint32_t reap_budgets = 4;

  // --- tracing (obs) -------------------------------------------------
  // The one gate for off-by-default diagnostics: transaction tracing,
  // the run-summary aggregates and per-lock wait/hold statistics. When
  // set via environment, tracing starts at the first stm::init.
  // [ADTM_TRACE]
  bool trace = false;
  // Per-thread trace ring capacity in events (rounded up to a power of
  // two; one event = 32 bytes). [ADTM_TRACE_RING]
  std::size_t trace_ring_capacity = 8192;
  // Cap on events retained by the collector; overflow is dropped and
  // counted, never silently merged. [ADTM_TRACE_MAX_EVENTS]
  std::size_t trace_max_events = std::size_t{1} << 18;
  // Chrome trace written here at process exit while tracing is enabled;
  // "" disables the exit writer (call obs::write_chrome_trace yourself).
  // [ADTM_TRACE_OUT]
  std::string trace_out = "adtm_trace.json";

  // --- overload control (health) -------------------------------------
  // Admission gate at the kvcache/RecoverableCache front doors: Healthy
  // admits, Degraded serializes, Critical sheds. [ADTM_ADMISSION]
  bool admission_gate = true;
  // Consecutive failures that trip a circuit breaker (fdpool I/O, WAL
  // flush, FailurePolicy escalation). 0 disables every breaker — the
  // default, so retry/escalation semantics are unchanged unless overload
  // control is armed. [ADTM_BREAKER_THRESHOLD]
  std::uint32_t breaker_threshold = 0;
  // Open-state cooldown before the first half-open probe; doubles with
  // jitter on each failed probe up to the max (common::Backoff idiom).
  // [ADTM_BREAKER_COOLDOWN_MS] / [ADTM_BREAKER_MAX_COOLDOWN_MS]
  std::uint64_t breaker_cooldown_ms = 100;
  std::uint64_t breaker_max_cooldown_ms = 2000;
  // AsyncIOEngine submission-queue capacity; 0 = unbounded (pre-overload
  // behavior). [ADTM_QUEUE_CAP]
  std::size_t queue_cap = 4096;
  // What a submitter does when the queue is full: "block" (wait for
  // space), "shed" (fail the request with EAGAIN), or "deadline" (block
  // up to queue_deadline_ms, then shed). [ADTM_QUEUE_POLICY]
  std::string queue_policy = "block";
  // Block budget for the "deadline" policy. [ADTM_QUEUE_DEADLINE_MS]
  std::uint64_t queue_deadline_ms = 100;
  // WAL group-commit gather window cap in microseconds: the flush-lock
  // holder waits up to this long (scaled by backlog depth) for
  // reserved-but-unstaged records to arrive before fsyncing. 0 = off.
  // [ADTM_WAL_GROUP_WINDOW_US]
  std::uint64_t wal_group_window_us = 0;

  // --- TM-aware sanitizer (tmsan) ------------------------------------
  // Mixed-mode race and deferral-contract checking; when set via the
  // environment the checkers start at the first stm::init. [ADTM_TMSAN]
  bool tmsan = false;
  // Opacity checking (per-transaction read/write history validation at
  // every commit and abort). Much heavier than the other checkers — for
  // test schedules, not production. [ADTM_TMSAN_OPACITY]
  bool tmsan_opacity = false;
  // Capture a real backtrace on only every Nth shadow-table update per
  // thread (1 = every access, 0 = never). Violation-site stacks are
  // always captured; sampling only thins the bookkeeping side, so a
  // report's "other side" stack may read <no stack>. backtrace() is the
  // dominant cost of the race checker — sample it down to make
  // tmsan-armed torture cheap enough for CI. [ADTM_TMSAN_STACK_SAMPLE]
  std::uint32_t tmsan_stack_sample = 1;
};

// Fresh resolution of every knob from the current environment (defaults
// where unset). Does not touch the process-wide snapshot.
RuntimeConfig runtime_config_from_env();

// The process-wide configuration: resolved from the environment on first
// use, replaced by configure().
const RuntimeConfig& runtime_config() noexcept;

// Programmatic override: replaces the process-wide snapshot and applies
// the knob that gates an already-running singleton (tracing).
// Call at startup or between test phases, not concurrently with
// transactions.
void configure(const RuntimeConfig& cfg);

namespace detail {
// Downstream subsystems (obs) register a callback invoked by configure()
// so their gates track programmatic overrides without this library
// depending on them. Process-lifetime, small fixed capacity.
void register_config_applier(void (*apply)(const RuntimeConfig&)) noexcept;
}  // namespace detail

}  // namespace adtm
