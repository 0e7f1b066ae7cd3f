#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <mutex>
#include <new>
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

// One thread's run-summary aggregates, updated at emit time (never
// through the ring) so ring drops cannot skew the abort-cause breakdown.
// Written only by the thread that owns the block, so its cache lines are
// never shared with another writer.
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

  void record(const TraceEvent& ev) noexcept {
    switch (ev.type) {
      case EventType::TxCommit:
        if (ev.algo < kMaxAlgos) {
          PerAlgo& a = algos[ev.algo];
          a.commits.fetch_add(1, std::memory_order_relaxed);
          a.tx.record(ev.arg0);
          a.commit.record(ev.arg1);
        }
        break;
      case EventType::TxAbort:
        if (ev.algo < kMaxAlgos &&
            static_cast<std::size_t>(ev.cause) < kCauseCount) {
          algos[ev.algo].aborts[static_cast<std::size_t>(ev.cause)]
              .fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case EventType::EpilogueEnd:
        epilogues.fetch_add(1, std::memory_order_relaxed);
        epilogue.record(ev.arg0);
        break;
      default:
        break;
    }
  }

  void add(const Aggregates& o) noexcept {
    constexpr auto r = std::memory_order_relaxed;
    for (std::size_t i = 0; i < kMaxAlgos; ++i) {
      algos[i].commits.fetch_add(o.algos[i].commits.load(r), r);
      for (std::size_t c = 0; c < kCauseCount; ++c) {
        algos[i].aborts[c].fetch_add(o.algos[i].aborts[c].load(r), r);
      }
      algos[i].tx.merge(o.algos[i].tx);
      algos[i].commit.merge(o.algos[i].commit);
    }
    epilogues.fetch_add(o.epilogues.load(r), r);
    epilogue.merge(o.epilogue);
  }

  void reset() noexcept {
    for (PerAlgo& a : algos) {
      a.commits.store(0, std::memory_order_relaxed);
      for (auto& c : a.aborts) c.store(0, std::memory_order_relaxed);
      a.tx.reset();
      a.commit.reset();
    }
    epilogues.store(0, std::memory_order_relaxed);
    epilogue.reset();
  }
};

// Everything one thread id records. Allocated at the id's first event and
// never freed, so a thread that reuses an exited thread's id continues its
// counts (the summary covers exited threads too).
struct ThreadBlock {
  explicit ThreadBlock(std::size_t ring_capacity) : ring(ring_capacity) {}
  Ring ring;
  Aggregates agg;
};

// Per-lock wait/hold histograms: a fixed claim-once table keyed by lock
// address, shared by every thread (a lock's samples come from all of them).
struct LockTable {
  struct Entry {
    std::atomic<const void*> key{nullptr};
    LatencyHistogram wait;
    LatencyHistogram hold;
  };
  Entry entries[kLockEntries];
  std::atomic<std::uint64_t> dropped{0};

  // `lock`'s entry, claimed at first use; nullptr (counted) once full.
  Entry* find_or_claim(const void* lock) noexcept {
    // Drop the alignment bits, hash, keep the top 8 bits: 256 slots.
    static_assert(kLockEntries == 256);
    const auto h = (reinterpret_cast<std::uintptr_t>(lock) >> 4) *
                   0x9E3779B97F4A7C15ull;
    const auto start = static_cast<std::size_t>(h >> 56);
    for (std::size_t i = 0; i < kLockEntries; ++i) {
      Entry& e = entries[(start + i) % kLockEntries];
      const void* key = e.key.load(std::memory_order_acquire);
      if (key == nullptr &&
          e.key.compare_exchange_strong(key, lock, std::memory_order_acq_rel)) {
        return &e;
      }
      if (key == lock) return &e;  // ours, or claimed for it by a racer
    }
    dropped.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }

  void summarize(RunSummary& out) const {
    for (const Entry& e : entries) {
      LockSummary l;
      l.lock = e.key.load(std::memory_order_acquire);
      l.waits = e.wait.count();
      l.holds = e.hold.count();
      if (l.lock == nullptr || (l.waits == 0 && l.holds == 0)) continue;
      l.wait_p50 = e.wait.percentile(50);
      l.wait_p99 = e.wait.percentile(99);
      l.hold_p50 = e.hold.percentile(50);
      l.hold_p99 = e.hold.percentile(99);
      out.locks.push_back(l);
    }
    out.locks_dropped = dropped.load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    for (Entry& e : entries) {
      e.key.store(nullptr, std::memory_order_relaxed);
      e.wait.reset();
      e.hold.reset();
    }
    dropped.store(0, std::memory_order_relaxed);
  }
};

struct State {
  std::mutex mutex;  // block directory, collector lifecycle, collected buf
  std::condition_variable cv;
  std::atomic<ThreadBlock*> blocks[kMaxThreads] = {};
  std::atomic<std::uint64_t> alloc_dropped{0};  // events with no block
  std::size_t ring_capacity = 8192;
  std::size_t max_events = std::size_t{1} << 18;
  std::vector<TraceEvent> collected;
  std::uint64_t overflow_dropped = 0;
  std::thread collector;
  bool collector_running = false;
  bool stop_requested = false;
  bool exit_writer_registered = false;
  LockTable locks;
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

ThreadBlock* allocate_block(State& s, std::uint32_t tid) noexcept {
  std::lock_guard<std::mutex> lk(s.mutex);
  ThreadBlock* b = s.blocks[tid].load(std::memory_order_acquire);
  if (b != nullptr) return b;  // lost the race; reuse
  try {
    b = new ThreadBlock(s.ring_capacity);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
  s.blocks[tid].store(b, std::memory_order_release);
  return b;
}

// Caller holds s.mutex.
void drain_locked(State& s) {
  for (auto& slot : s.blocks) {
    ThreadBlock* b = slot.load(std::memory_order_acquire);
    if (b == nullptr) continue;
    Ring* r = &b->ring;
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
  ThreadBlock* b = s.blocks[ev.tid].load(std::memory_order_acquire);
  if (b == nullptr) {
    b = allocate_block(s, ev.tid);
    if (b == nullptr) {
      s.alloc_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  b->agg.record(ev);
  b->ring.push(ev);
}

thread_local constinit LockWait t_lock_wait;

void lock_wait_begin_slow(const void* lock) noexcept {
  // Re-executions after a wake-up keep the original start, so the
  // recorded wait spans the whole park.
  if (t_lock_wait.lock == lock) return;
  t_lock_wait = {lock, now_ns()};
  emit(EventType::LockPark, AbortCause::None, kNoAlgo,
       reinterpret_cast<std::uintptr_t>(lock));
}

void lock_wait_end_slow(const void* lock) noexcept {
  const std::uint64_t waited = now_ns() - t_lock_wait.since_ns;
  t_lock_wait = {};
  if (!enabled()) return;
  if (auto* e = state().locks.find_or_claim(lock)) e->wait.record(waited);
  emit(EventType::LockWake, AbortCause::None, kNoAlgo, waited);
}

}  // namespace detail

namespace {

// Hold starts are thread-local: both commits of a hold happen on the
// owning thread (TxLock forbids hand-off). A shared per-lock slot would
// race — the next owner's acquire hook can run between a release's
// commit and its hook, and the old owner would consume the new owner's
// start.
struct HoldStart {
  const void* lock;
  std::uint64_t since_ns;
};
thread_local std::vector<HoldStart> t_hold_starts;

}  // namespace

void lock_hold_begin(const void* lock) {
  t_hold_starts.push_back({lock, now_ns()});
}

void lock_hold_end(const void* lock) noexcept {
  // Newest first: a hold whose release went unrecorded (the gate closed
  // first, or the lock was destroyed while held) leaves an older entry
  // for the same address; the newest one is the live hold.
  for (auto it = t_hold_starts.rbegin(); it != t_hold_starts.rend(); ++it) {
    if (it->lock == lock) {
      if (auto* e = state().locks.find_or_claim(lock)) {
        e->hold.record(now_ns() - it->since_ns);
      }
      t_hold_starts.erase(std::next(it).base());
      return;
    }
  }
}

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
  for (auto& slot : s.blocks) {
    ThreadBlock* b = slot.load(std::memory_order_acquire);
    if (b == nullptr) continue;
    b->ring.tail.store(b->ring.head.load(std::memory_order_acquire),
                       std::memory_order_release);
    b->ring.dropped.store(0, std::memory_order_relaxed);
    b->agg.reset();
  }
  s.collected.clear();
  s.overflow_dropped = 0;
  s.alloc_dropped.store(0, std::memory_order_relaxed);
  s.locks.reset();
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
  std::uint64_t n =
      s.overflow_dropped + s.alloc_dropped.load(std::memory_order_relaxed);
  for (auto& slot : s.blocks) {
    ThreadBlock* b = slot.load(std::memory_order_acquire);
    if (b != nullptr) n += b->ring.dropped.load(std::memory_order_relaxed);
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
  // Sum the per-thread blocks. Blocks are never freed, so reading them
  // needs no lock; counts still being written are approximate.
  Aggregates sum;
  for (auto& slot : s.blocks) {
    if (const ThreadBlock* b = slot.load(std::memory_order_acquire)) {
      sum.add(b->agg);
    }
  }
  for (std::size_t i = 0; i < kMaxAlgos; ++i) {
    const Aggregates::PerAlgo& a = sum.algos[i];
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
  out.epilogues = sum.epilogues.load(std::memory_order_relaxed);
  out.epilogue_p50 = sum.epilogue.percentile(50);
  out.epilogue_p99 = sum.epilogue.percentile(99);
  s.locks.summarize(out);
  return out;
}

std::string summary_json() {
  const RunSummary sum = summary();
  std::string out = "{\"schema\":\"adtm-obs-summary/v3\"";
  char buf[256];  // fits the longest record: a lock entry, six 20-digit values
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
  std::snprintf(buf, sizeof buf, "},\"locks\":{\"dropped\":%" PRIu64
                ",\"entries\":[",
                sum.locks_dropped);
  out += buf;
  for (std::size_t i = 0; i < sum.locks.size(); ++i) {
    const LockSummary& l = sum.locks[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"lock\":\"%p\",\"waits\":%" PRIu64
                  ",\"wait_ns\":{\"p50\":%" PRIu64 ",\"p99\":%" PRIu64
                  "},\"holds\":%" PRIu64 ",\"hold_ns\":{\"p50\":%" PRIu64
                  ",\"p99\":%" PRIu64 "}}",
                  i == 0 ? "" : ",", l.lock, l.waits, l.wait_p50, l.wait_p99,
                  l.holds, l.hold_p50, l.hold_p99);
    out += buf;
  }
  out += "]},\"counters\":{";
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
