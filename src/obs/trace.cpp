#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/runtime_config.hpp"
#include "common/stats.hpp"
#include "common/thread_id.hpp"
#include "common/timing.hpp"

namespace adtm::obs {

namespace detail {
std::atomic<bool> g_trace_on{false};
}  // namespace detail

const char* event_name(EventType t) noexcept {
  switch (t) {
    case EventType::TxBegin: return "tx-begin";
    case EventType::TxCommit: return "tx-commit";
    case EventType::TxAbort: return "tx-abort";
    case EventType::RetryPark: return "retry-park";
    case EventType::RetryWake: return "retry-wait";
    case EventType::SerialEnter: return "serial-enter";
    case EventType::DeferEnqueue: return "defer-enqueue";
    case EventType::EpilogueBegin: return "epilogue-begin";
    case EventType::EpilogueEnd: return "epilogue";
    case EventType::LockPark: return "lock-park";
    case EventType::LockWake: return "lock-wait";
    case EventType::IoComplete: return "io-complete";
    case EventType::WalFlush: return "wal-flush";
    case EventType::HealthTransition: return "health-transition";
    case EventType::BreakerTransition: return "breaker-transition";
    case EventType::BackendSwitch: return "backend-switch";
    case EventType::kCount: break;
  }
  return "?";
}

const char* abort_cause_name(AbortCause c) noexcept {
  switch (c) {
    case AbortCause::None: return "none";
    case AbortCause::ConflictLockBusy: return "conflict-lock-busy";
    case AbortCause::ConflictValidation: return "conflict-validation";
    case AbortCause::ConflictNorecValue: return "conflict-norec-value";
    case AbortCause::ConflictPriorityYield: return "conflict-priority-yield";
    case AbortCause::Capacity: return "capacity";
    case AbortCause::Explicit: return "explicit";
    case AbortCause::SerialRestart: return "serial-restart";
    case AbortCause::Timeout: return "timeout";
    case AbortCause::Deadlock: return "deadlock";
    case AbortCause::Exception: return "exception";
    case AbortCause::kCount: break;
  }
  return "?";
}

namespace {

// Backend display names, published by the stm backend registry at
// registration time (register_algo_label).
constexpr std::size_t kCauseCount =
    static_cast<std::size_t>(AbortCause::kCount);

std::atomic<const char*> g_algo_names[kMaxAlgos] = {};

const char* algo_label(std::uint8_t a) noexcept {
  if (a >= kMaxAlgos) return "-";
  const char* name = g_algo_names[a].load(std::memory_order_acquire);
  return name != nullptr ? name : "-";
}

std::size_t round_pow2(std::size_t n) noexcept {
  std::size_t p = 64;  // floor: a ring this small is still functional
  while (p < n && p < (std::size_t{1} << 24)) p <<= 1;
  return p;
}

// SPSC ring: the owning thread produces, the collector (serialized by the
// state mutex) consumes. A full ring drops the newest event.
struct Ring {
  explicit Ring(std::size_t cap) : mask(cap - 1), slots(cap) {}

  void push(const TraceEvent& ev) noexcept {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    const std::uint64_t t = tail.load(std::memory_order_acquire);
    if (h - t > mask) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slots[static_cast<std::size_t>(h) & mask] = ev;
    head.store(h + 1, std::memory_order_release);
  }

  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> tail{0};
  std::atomic<std::uint64_t> dropped{0};
  std::size_t mask;
  std::vector<TraceEvent> slots;
};

// Summary aggregates, updated directly at emit time (never through the
// rings) so ring drops cannot skew the abort-cause breakdown.
struct Aggregates {
  struct PerAlgo {
    std::atomic<std::uint64_t> commits{0};
    std::atomic<std::uint64_t> aborts[kCauseCount] = {};
    LatencyHistogram tx;
    LatencyHistogram commit;
  };
  PerAlgo algos[kMaxAlgos];
  std::atomic<std::uint64_t> epilogues{0};
  LatencyHistogram epilogue;

  void reset() noexcept {
    for (auto& a : algos) {
      a.commits.store(0, std::memory_order_relaxed);
      for (auto& c : a.aborts) c.store(0, std::memory_order_relaxed);
      a.tx.reset();
      a.commit.reset();
    }
    epilogues.store(0, std::memory_order_relaxed);
    epilogue.reset();
  }
};

struct State {
  std::mutex mutex;  // rings directory, collector lifecycle, collected buf
  std::condition_variable cv;
  std::atomic<Ring*> rings[kMaxThreads] = {};
  std::size_t ring_capacity = 8192;
  std::size_t max_events = std::size_t{1} << 18;
  std::vector<TraceEvent> collected;
  std::uint64_t overflow_dropped = 0;
  std::thread collector;
  bool collector_running = false;
  bool stop_requested = false;
  bool exit_writer_registered = false;
  Aggregates agg;
  // stats() totals snapshotted at enable()/clear(): the run summary
  // reports counter *deltas* for the traced window, not process totals.
  std::uint64_t counter_baseline[static_cast<std::size_t>(Counter::kCount)] =
      {};
};

// Leaked on purpose: emit() may run from thread-exit paths and the atexit
// writer after static destructors would have torn a static instance down.
State& state() noexcept {
  static State* s = new State;
  return *s;
}

constexpr std::uint64_t kDrainIntervalMs = 100;

// Caller holds s.mutex.
void snapshot_counter_baseline(State& s) noexcept {
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount); ++c) {
    s.counter_baseline[c] = stats().total(static_cast<Counter>(c));
  }
}

Ring* allocate_ring(State& s, std::uint32_t tid) noexcept {
  std::lock_guard<std::mutex> lk(s.mutex);
  Ring* r = s.rings[tid].load(std::memory_order_acquire);
  if (r != nullptr) return r;  // lost the race; reuse
  r = new (std::nothrow) Ring(s.ring_capacity);
  if (r == nullptr) return nullptr;
  s.rings[tid].store(r, std::memory_order_release);
  return r;
}

// Caller holds s.mutex.
void drain_locked(State& s) {
  for (auto& slot : s.rings) {
    Ring* r = slot.load(std::memory_order_acquire);
    if (r == nullptr) continue;
    const std::uint64_t h = r->head.load(std::memory_order_acquire);
    std::uint64_t t = r->tail.load(std::memory_order_relaxed);
    for (; t != h; ++t) {
      if (s.collected.size() < s.max_events) {
        s.collected.push_back(r->slots[static_cast<std::size_t>(t) & r->mask]);
      } else {
        ++s.overflow_dropped;
      }
    }
    r->tail.store(h, std::memory_order_release);
  }
}

void collector_loop(State& s) {
  std::unique_lock<std::mutex> lk(s.mutex);
  while (!s.stop_requested) {
    s.cv.wait_for(lk, std::chrono::milliseconds(kDrainIntervalMs),
                  [&s] { return s.stop_requested; });
    drain_locked(s);
  }
  drain_locked(s);  // final sweep so disable() loses nothing
}

void record_aggregates(const TraceEvent& ev) noexcept {
  Aggregates& agg = state().agg;
  switch (ev.type) {
    case EventType::TxCommit:
      if (ev.algo < kMaxAlgos) {
        auto& a = agg.algos[ev.algo];
        a.commits.fetch_add(1, std::memory_order_relaxed);
        a.tx.record(ev.arg0);
        a.commit.record(ev.arg1);
      }
      break;
    case EventType::TxAbort:
      if (ev.algo < kMaxAlgos &&
          static_cast<std::size_t>(ev.cause) < kCauseCount) {
        agg.algos[ev.algo].aborts[static_cast<std::size_t>(ev.cause)]
            .fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case EventType::EpilogueEnd:
      agg.epilogues.fetch_add(1, std::memory_order_relaxed);
      agg.epilogue.record(ev.arg0);
      break;
    default:
      break;
  }
}

void exit_writer() {
  if (!enabled()) return;
  const std::string& path = runtime_config().trace_out;
  if (!path.empty()) (void)write_chrome_trace(path);
}

}  // namespace

void register_algo_label(std::uint8_t idx, const char* name) noexcept {
  if (idx < kMaxAlgos && name != nullptr) {
    g_algo_names[idx].store(name, std::memory_order_release);
  }
}

namespace detail {

void emit_slow(EventType type, AbortCause cause, std::uint8_t algo,
               std::uint64_t arg0, std::uint32_t arg1) noexcept {
  State& s = state();
  TraceEvent ev;
  ev.ts_ns = now_ns();
  ev.arg0 = arg0;
  ev.arg1 = arg1;
  ev.tid = thread_id();
  ev.type = type;
  ev.cause = cause;
  ev.algo = algo;
  ev.reserved = 0;
  record_aggregates(ev);
  Ring* r = s.rings[ev.tid].load(std::memory_order_acquire);
  if (r == nullptr) {
    r = allocate_ring(s, ev.tid);
    if (r == nullptr) return;  // allocation failed: drop silently-but-never-crash
  }
  r->push(ev);
}

}  // namespace detail

void enable() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mutex);
  const RuntimeConfig& cfg = runtime_config();
  // Ring capacity applies to rings allocated from here on; existing rings
  // keep their size (documented: set knobs before enabling).
  s.ring_capacity = round_pow2(cfg.trace_ring_capacity);
  s.max_events = cfg.trace_max_events;
  // Off->on transition starts a new counter-delta window (an idempotent
  // re-enable mid-run must not shift the baseline under a live summary).
  if (!detail::g_trace_on.load(std::memory_order_relaxed)) {
    snapshot_counter_baseline(s);
  }
  detail::g_trace_on.store(true, std::memory_order_relaxed);
  if (!s.collector_running) {
    s.stop_requested = false;
    s.collector = std::thread([&s] { collector_loop(s); });
    s.collector_running = true;
  }
  if (!s.exit_writer_registered && !cfg.trace_out.empty()) {
    std::atexit(exit_writer);
    s.exit_writer_registered = true;
  }
}

void disable() {
  State& s = state();
  detail::g_trace_on.store(false, std::memory_order_relaxed);
  std::thread joinable;
  {
    std::lock_guard<std::mutex> lk(s.mutex);
    if (!s.collector_running) return;
    s.stop_requested = true;
    joinable = std::move(s.collector);
    s.collector_running = false;
  }
  s.cv.notify_all();
  joinable.join();
}

void clear() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mutex);
  for (auto& slot : s.rings) {
    Ring* r = slot.load(std::memory_order_acquire);
    if (r == nullptr) continue;
    r->tail.store(r->head.load(std::memory_order_acquire),
                  std::memory_order_release);
    r->dropped.store(0, std::memory_order_relaxed);
  }
  s.collected.clear();
  s.overflow_dropped = 0;
  s.agg.reset();
  snapshot_counter_baseline(s);
}

void drain() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mutex);
  drain_locked(s);
}

std::size_t collected_count() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mutex);
  return s.collected.size();
}

std::uint64_t dropped_count() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mutex);
  std::uint64_t n = s.overflow_dropped;
  for (auto& slot : s.rings) {
    Ring* r = slot.load(std::memory_order_acquire);
    if (r != nullptr) n += r->dropped.load(std::memory_order_relaxed);
  }
  return n;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

namespace {

// Events that render as Chrome complete ("X") duration events carry their
// span length in arg0; everything else is an instant.
bool is_duration_event(EventType t) noexcept {
  return t == EventType::TxCommit || t == EventType::EpilogueEnd ||
         t == EventType::RetryWake || t == EventType::LockWake;
}

void append_event_json(std::string& out, const TraceEvent& ev) {
  char buf[256];
  const double us = static_cast<double>(ev.ts_ns) / 1000.0;
  if (is_duration_event(ev.type)) {
    const double dur_us = static_cast<double>(ev.arg0) / 1000.0;
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"adtm\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{"
                  "\"algo\":\"%s\",\"arg1\":%u}}",
                  event_name(ev.type), us - dur_us, dur_us, ev.tid,
                  algo_label(ev.algo), ev.arg1);
  } else if (ev.type == EventType::TxAbort) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"adtm\",\"ph\":\"i\","
                  "\"ts\":%.3f,\"s\":\"t\",\"pid\":1,\"tid\":%u,\"args\":{"
                  "\"algo\":\"%s\",\"cause\":\"%s\",\"attempt\":%u}}",
                  event_name(ev.type), us, ev.tid, algo_label(ev.algo),
                  abort_cause_name(ev.cause), ev.arg1);
  } else {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"adtm\",\"ph\":\"i\","
                  "\"ts\":%.3f,\"s\":\"t\",\"pid\":1,\"tid\":%u,\"args\":{"
                  "\"algo\":\"%s\",\"arg0\":%" PRIu64 ",\"arg1\":%u}}",
                  event_name(ev.type), us, ev.tid, algo_label(ev.algo),
                  ev.arg0, ev.arg1);
  }
  out += buf;
}

}  // namespace

std::string chrome_trace_json() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mutex);
  drain_locked(s);
  std::string out;
  out.reserve(128 + s.collected.size() * 160);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"adtm\"}}";
  for (const TraceEvent& ev : s.collected) {
    out += ",\n";
    append_event_json(out, ev);
  }
  out += "\n]}\n";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

std::string recent_tail(std::size_t n) {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mutex);
  drain_locked(s);
  const std::size_t count = s.collected.size();
  const std::size_t from = count > n ? count - n : 0;
  std::string out;
  char buf[192];
  for (std::size_t i = from; i < count; ++i) {
    const TraceEvent& ev = s.collected[i];
    std::snprintf(buf, sizeof buf,
                  "  [%" PRIu64 ".%06" PRIu64 " ms] tid=%u %s %s%s%s arg0=%" PRIu64
                  " arg1=%u\n",
                  ev.ts_ns / 1000000, ev.ts_ns % 1000000, ev.tid,
                  algo_label(ev.algo), event_name(ev.type),
                  ev.cause == AbortCause::None ? "" : " cause=",
                  ev.cause == AbortCause::None ? ""
                                               : abort_cause_name(ev.cause),
                  ev.arg0, ev.arg1);
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Run summary
// ---------------------------------------------------------------------------

RunSummary summary() {
  State& s = state();
  RunSummary out;
  {
    std::lock_guard<std::mutex> lk(s.mutex);
    drain_locked(s);
    out.events = s.collected.size();
    out.counters.reserve(static_cast<std::size_t>(Counter::kCount));
    for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount);
         ++c) {
      const std::uint64_t total = stats().total(static_cast<Counter>(c));
      const std::uint64_t base = s.counter_baseline[c];
      // A stats().reset() inside the window makes totals go backwards;
      // clamp instead of wrapping.
      out.counters.emplace_back(counter_name(static_cast<Counter>(c)),
                                total >= base ? total - base : 0);
    }
  }
  out.dropped = dropped_count();
  for (std::size_t i = 0; i < kMaxAlgos; ++i) {
    const auto& a = s.agg.algos[i];
    AlgoSummary algo;
    algo.algo = algo_label(static_cast<std::uint8_t>(i));
    algo.commits = a.commits.load(std::memory_order_relaxed);
    for (std::size_t c = 0; c < kCauseCount; ++c) {
      algo.aborts[c] = a.aborts[c].load(std::memory_order_relaxed);
      algo.total_aborts += algo.aborts[c];
    }
    if (algo.commits == 0 && algo.total_aborts == 0) continue;
    algo.tx_p50 = a.tx.percentile(50);
    algo.tx_p99 = a.tx.percentile(99);
    algo.commit_p50 = a.commit.percentile(50);
    algo.commit_p99 = a.commit.percentile(99);
    out.algos.push_back(std::move(algo));
  }
  out.epilogues = s.agg.epilogues.load(std::memory_order_relaxed);
  out.epilogue_p50 = s.agg.epilogue.percentile(50);
  out.epilogue_p99 = s.agg.epilogue.percentile(99);
  return out;
}

std::string summary_json() {
  const RunSummary sum = summary();
  std::string out = "{\"schema\":\"adtm-obs-summary/v2\"";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                ",\"events\":%" PRIu64 ",\"dropped\":%" PRIu64
                ",\"epilogues\":{\"count\":%" PRIu64 ",\"p50_ns\":%" PRIu64
                ",\"p99_ns\":%" PRIu64 "}",
                sum.events, sum.dropped, sum.epilogues, sum.epilogue_p50,
                sum.epilogue_p99);
  out += buf;
  out += ",\"algos\":{";
  bool first_algo = true;
  for (const AlgoSummary& a : sum.algos) {
    if (!first_algo) out += ",";
    first_algo = false;
    out += "\"" + a.algo + "\":{";
    std::snprintf(buf, sizeof buf,
                  "\"commits\":%" PRIu64 ",\"tx_ns\":{\"p50\":%" PRIu64
                  ",\"p99\":%" PRIu64 "},\"commit_ns\":{\"p50\":%" PRIu64
                  ",\"p99\":%" PRIu64 "},\"aborts\":{",
                  a.commits, a.tx_p50, a.tx_p99, a.commit_p50, a.commit_p99);
    out += buf;
    bool first_cause = true;
    for (std::size_t c = 1; c < kCauseCount; ++c) {  // skip None
      if (!first_cause) out += ",";
      first_cause = false;
      std::snprintf(buf, sizeof buf, "\"%s\":%" PRIu64,
                    abort_cause_name(static_cast<AbortCause>(c)),
                    a.aborts[c]);
      out += buf;
    }
    out += "}}";
  }
  out += "},\"counters\":{";
  bool first_counter = true;
  for (const auto& [name, delta] : sum.counters) {
    if (!first_counter) out += ",";
    first_counter = false;
    std::snprintf(buf, sizeof buf, "\"%s\":%" PRIu64, name.c_str(), delta);
    out += buf;
  }
  out += "}}";
  return out;
}

// Tracing follows adtm::configure() so tests and embedders can flip the
// gate without touching the environment.
namespace {
const bool g_config_applier = [] {
  adtm::detail::register_config_applier([](const RuntimeConfig& cfg) {
    if (cfg.trace) {
      enable();
    } else {
      disable();
    }
  });
  return true;
}();
}  // namespace

}  // namespace adtm::obs
