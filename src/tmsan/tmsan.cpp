#include "tmsan/tmsan.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

#include "common/runtime_config.hpp"
#include "common/thread_id.hpp"
#include "tmsan/internal.hpp"

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define ADTM_TMSAN_HAVE_BACKTRACE 1
#endif
#endif
#ifndef ADTM_TMSAN_HAVE_BACKTRACE
#define ADTM_TMSAN_HAVE_BACKTRACE 0
#endif

namespace adtm::tmsan {

namespace detail {
std::atomic<std::uint32_t> g_mode{0};
}  // namespace detail

const char* violation_name(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::MixedModeRace: return "mixed-mode-race";
    case ViolationKind::DeferralUncovered: return "deferral-uncovered";
    case ViolationKind::EarlyLockRelease: return "early-lock-release";
    case ViolationKind::OpacityViolation: return "opacity-violation";
  }
  return "?";
}

namespace detail {

void capture_stack(Stack& out) noexcept {
#if ADTM_TMSAN_HAVE_BACKTRACE
  out.depth = ::backtrace(out.frames, Stack::kMaxFrames);
#else
  out.depth = 0;
#endif
}

std::string format_stack(const Stack& s) {
#if ADTM_TMSAN_HAVE_BACKTRACE
  if (s.depth <= 0) return "  <no stack>";
  std::string out;
  char** symbols = ::backtrace_symbols(const_cast<void* const*>(s.frames),
                                       s.depth);
  for (int i = 0; i < s.depth; ++i) {
    out += "  #";
    out += std::to_string(i);
    out += ' ';
    if (symbols != nullptr && symbols[i] != nullptr) {
      out += symbols[i];
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%p", s.frames[i]);
      out += buf;
    }
    out += '\n';
  }
  std::free(symbols);
  return out;
#else
  (void)s;
  return "  <backtrace unavailable>";
#endif
}

}  // namespace detail

namespace {

using detail::Access;
using detail::Stack;

// --- shadow table ----------------------------------------------------------
//
// Direct-mapped by word address; a collision evicts the previous entry,
// so hash collisions can only hide a race, never invent one.

constexpr std::size_t kShadowBits = 16;
constexpr std::size_t kShadowSize = std::size_t{1} << kShadowBits;
constexpr std::size_t kStripes = 64;

struct ShadowEntry {
  const void* addr = nullptr;
  // Transactional side: the most recent transaction that touched the word.
  std::uint32_t tx_tid = 0;
  std::uint64_t tx_interval = 0;  // 0 = no transactional access recorded
  bool tx_read = false;
  bool tx_write = false;
  Stack tx_stack;
  // Raw (non-transactional) side: the most recent direct access.
  std::uint32_t raw_tid = 0;
  std::uint64_t raw_read_seq = 0;   // 0 = none recorded
  std::uint64_t raw_write_seq = 0;
  bool raw_epilogue = false;  // access came from a deferred epilogue
  Stack raw_stack;
};

// Coverage declaration: [base, end) is protected by `lock`.
struct CoverRange {
  std::uintptr_t end;
  const void* lock;
};

struct State {
  // Shadow table, allocated on first enable() and leaked (hooks may run
  // from thread-exit paths after static destructors).
  std::atomic<ShadowEntry*> shadow{nullptr};
  std::mutex stripes[kStripes];

  // Unique id per transaction attempt; slot 0 of the counter is reserved
  // so "interval 0" always means idle.
  std::atomic<std::uint64_t> interval_counter{1};
  // The interval currently running on each thread slot (0 = idle).
  std::atomic<std::uint64_t> active_interval[kMaxThreads] = {};
  // Global raw-access sequence; transactions snapshot it at begin.
  std::atomic<std::uint64_t> raw_seq{1};

  // Violation reports.
  std::mutex report_mutex;
  std::vector<Violation> violations;  // bounded; counts are not
  std::atomic<std::uint64_t> counts[4] = {};

  // Deferral contract: per-lock pending-epilogue counts and coverage.
  std::mutex defer_mutex;
  std::map<const void*, std::uint64_t> pending;
  std::map<std::uintptr_t, CoverRange> cover;
};

State& state() noexcept {
  static State* s = new State;
  return *s;
}

constexpr std::size_t kMaxStoredViolations = 256;
// Per-transaction access-log cap; past it the transaction's opacity
// bookkeeping is skipped (never reported from partial data).
constexpr std::size_t kMaxTxLog = std::size_t{1} << 20;

// Per-thread transaction log and epilogue context.
struct TxLog {
  bool in_tx = false;
  bool direct_mode = false;
  bool opacity_skip = false;
  std::uint64_t interval = 0;
  std::uint64_t raw_seq_at_begin = 0;
  std::vector<Access> reads;
  std::vector<Access> writes;
  // Ranges handed out by tx.alloc this attempt. Raw stores into them are
  // private initialization: ordered before every reader by the publishing
  // commit (or freed by the abort), so their shadow marks are withdrawn
  // when the transaction ends instead of lingering as phantom racers.
  std::vector<std::pair<const void*, std::size_t>> allocs;
};
thread_local TxLog t_tx;
thread_local int t_raw_ignore = 0;
// Stack of epilogue lock sets (an epilogue may run transactions whose
// epilogues nest). A raw access is "in an epilogue" while nonempty; its
// lock set is the union of all levels (outer locks are still held).
thread_local std::vector<std::vector<const void*>> t_epi_stack;

// Shadow-side stack sampling (ADTM_TMSAN_STACK_SAMPLE): backtrace() on
// every shadow update dominates the race checker's cost. Violation-site
// stacks stay unconditional; only the bookkeeping side is thinned, to
// every Nth access per thread (0 = never).
std::atomic<std::uint32_t> g_stack_sample{1};
thread_local std::uint32_t t_stack_tick = 0;

void maybe_capture_stack(Stack& out) noexcept {
  const std::uint32_t n = g_stack_sample.load(std::memory_order_relaxed);
  if (n == 1) {
    detail::capture_stack(out);
  } else if (n != 0 && ++t_stack_tick >= n) {
    t_stack_tick = 0;
    detail::capture_stack(out);
  } else {
    out.depth = 0;
  }
}

std::size_t shadow_index(const void* addr) noexcept {
  auto a = reinterpret_cast<std::uintptr_t>(addr) >> 3;
  a *= 0x9e3779b97f4a7c15ULL;
  return static_cast<std::size_t>(a >> (64 - kShadowBits));
}

ShadowEntry* shadow_table() noexcept {
  return state().shadow.load(std::memory_order_acquire);
}

std::string addr_str(const void* p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%p", p);
  return buf;
}

bool epilogue_holds(const void* lock) noexcept {
  for (const auto& level : t_epi_stack) {
    for (const void* l : level) {
      if (l == lock) return true;
    }
  }
  return false;
}

// The covering lock of addr, or nullptr. Caller holds defer_mutex.
const void* covering_lock_locked(State& s, const void* addr) noexcept {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  auto it = s.cover.upper_bound(a);
  if (it == s.cover.begin()) return nullptr;
  --it;
  return a < it->second.end ? it->second.lock : nullptr;
}

}  // namespace

namespace detail {

void record_violation(ViolationKind kind, const void* addr,
                      std::uint32_t tid_a, std::uint32_t tid_b,
                      std::string detail_text, std::string stack_a,
                      std::string stack_b) noexcept {
  State& s = state();
  s.counts[static_cast<std::size_t>(kind)].fetch_add(
      1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(s.report_mutex);
  if (s.violations.size() >= kMaxStoredViolations) return;
  Violation v;
  v.kind = kind;
  v.addr = addr;
  v.tid_a = tid_a;
  v.tid_b = tid_b;
  v.detail = std::move(detail_text);
  v.stack_a = std::move(stack_a);
  v.stack_b = std::move(stack_b);
  s.violations.push_back(std::move(v));
}

// --- raw (non-transactional) access ----------------------------------------

void raw_access_slow(const void* addr, bool is_write) noexcept {
  if (t_raw_ignore > 0) return;
  State& s = state();
  const std::uint32_t me = thread_id();
  const bool in_epilogue = !t_epi_stack.empty();

  if (in_epilogue && active(kCheckDeferral)) {
    // Deferral contract: an epilogue may touch covered state only under
    // a lock its atomic_defer acquired.
    const void* needed = nullptr;
    {
      std::lock_guard<std::mutex> lk(s.defer_mutex);
      needed = covering_lock_locked(s, addr);
    }
    if (needed != nullptr && !epilogue_holds(needed)) {
      Stack here;
      capture_stack(here);
      record_violation(
          ViolationKind::DeferralUncovered, addr, me, 0,
          "epilogue " + std::string(is_write ? "wrote" : "read") + " word " +
              addr_str(addr) + " covered by TxLock " + addr_str(needed) +
              " that its atomic_defer did not acquire",
          format_stack(here), "");
    }
  }

  if (!active(kCheckRace)) return;
  ShadowEntry* table = shadow_table();
  if (table == nullptr) return;
  ShadowEntry& e = table[shadow_index(addr)];
  std::lock_guard<std::mutex> lk(s.stripes[shadow_index(addr) % kStripes]);

  if (e.addr == addr && !in_epilogue && e.tx_interval != 0 &&
      e.tx_tid != me &&
      s.active_interval[e.tx_tid].load(std::memory_order_acquire) ==
          e.tx_interval &&
      (is_write || e.tx_write)) {
    // The transaction that touched this word is still running: the raw
    // access is concurrent with it, and one side writes.
    Stack here;
    capture_stack(here);
    record_violation(
        ViolationKind::MixedModeRace, addr, me, e.tx_tid,
        "non-transactional " + std::string(is_write ? "store" : "load") +
            " of word " + addr_str(addr) + " races transaction on thread " +
            std::to_string(e.tx_tid) + " (" +
            (e.tx_write ? "transactional write" : "transactional read") + ")",
        format_stack(here), format_stack(e.tx_stack));
  }

  if (e.addr != addr) {
    e = ShadowEntry{};  // collision: evict (may hide, never invents)
    e.addr = addr;
  }
  const std::uint64_t seq =
      s.raw_seq.fetch_add(1, std::memory_order_acq_rel) + 1;
  e.raw_tid = me;
  if (is_write) {
    e.raw_write_seq = seq;
  } else {
    e.raw_read_seq = seq;
  }
  e.raw_epilogue = in_epilogue;
  maybe_capture_stack(e.raw_stack);
}

// --- transactional access --------------------------------------------------

void tx_access_slow(const void* addr, std::uint64_t value,
                    bool is_write) noexcept {
  State& s = state();
  const std::uint32_t me = thread_id();

  if (active(kCheckOpacity) && t_tx.in_tx && !t_tx.opacity_skip) {
    if (is_write) {
      // Direct-mode writes enter the history too: speculative readers
      // validate against them.
      if (t_tx.writes.size() < kMaxTxLog) {
        t_tx.writes.push_back({addr, value});
      } else {
        t_tx.opacity_skip = true;
      }
    } else if (!t_tx.direct_mode) {
      // Direct-mode reads are serialized by construction; only
      // speculative reads need snapshot validation.
      if (t_tx.reads.size() < kMaxTxLog) {
        t_tx.reads.push_back({addr, value});
      } else {
        t_tx.opacity_skip = true;
      }
    }
  }

  if (!active(kCheckRace)) return;
  ShadowEntry* table = shadow_table();
  if (table == nullptr) return;
  ShadowEntry& e = table[shadow_index(addr)];
  std::lock_guard<std::mutex> lk(s.stripes[shadow_index(addr) % kStripes]);

  if (e.addr == addr && (e.raw_read_seq | e.raw_write_seq) != 0 &&
      e.raw_tid != me && !e.raw_epilogue) {
    // A raw access later than our begin snapshot is concurrent with this
    // transaction. Epilogue accesses are excluded: the deferral contract
    // (subscription) orders them, and its own checker covers them.
    const bool raw_wrote = e.raw_write_seq > t_tx.raw_seq_at_begin;
    const bool raw_read = e.raw_read_seq > t_tx.raw_seq_at_begin;
    if (raw_wrote || (is_write && raw_read)) {
      Stack here;
      capture_stack(here);
      record_violation(
          ViolationKind::MixedModeRace, addr, me, e.raw_tid,
          "transactional " + std::string(is_write ? "write" : "read") +
              " of word " + addr_str(addr) +
              " races non-transactional " +
              (raw_wrote ? "store" : "load") + " by thread " +
              std::to_string(e.raw_tid),
          format_stack(here), format_stack(e.raw_stack));
    }
  }

  if (e.addr != addr) {
    e = ShadowEntry{};
    e.addr = addr;
  }
  if (e.tx_interval != t_tx.interval) {
    // A different (older) transaction's marks: start fresh.
    e.tx_read = false;
    e.tx_write = false;
  }
  e.tx_tid = me;
  e.tx_interval = t_tx.interval;
  e.tx_read = e.tx_read || !is_write;
  e.tx_write = e.tx_write || is_write;
  maybe_capture_stack(e.tx_stack);
}

namespace {

// Drop shadow entries for every word of [base, base + bytes).
void clear_shadow_range(const void* base, std::size_t bytes) noexcept {
  ShadowEntry* table = shadow_table();
  if (table == nullptr) return;
  State& s = state();
  auto p = reinterpret_cast<std::uintptr_t>(base) & ~std::uintptr_t{7};
  const auto end = reinterpret_cast<std::uintptr_t>(base) + bytes;
  for (; p < end; p += 8) {
    const void* addr = reinterpret_cast<const void*>(p);
    const std::size_t idx = shadow_index(addr);
    std::lock_guard<std::mutex> lk(s.stripes[idx % kStripes]);
    ShadowEntry& e = table[idx];
    if (e.addr == addr) e = ShadowEntry{};
  }
}

// Withdraw the shadow marks left by this attempt's private initialization
// of freshly allocated ranges (see TxLog::allocs).
void retire_tx_allocs() noexcept {
  for (const auto& [base, bytes] : t_tx.allocs) {
    clear_shadow_range(base, bytes);
  }
}

}  // namespace

void tx_alloc_slow(const void* base, std::size_t bytes) noexcept {
  // A transactional allocation recycles whatever the allocator hands
  // back: per-word state filed under these addresses describes a freed
  // object, not this one. Forget it before the new object's raw
  // initialization runs.
  if (active(kCheckOpacity)) opacity_on_alloc(base, bytes);
  if (!active(kCheckRace)) return;
  clear_shadow_range(base, bytes);
  if (t_tx.in_tx) t_tx.allocs.push_back({base, bytes});
}

std::size_t tx_read_mark_slow() noexcept { return t_tx.reads.size(); }

}  // namespace detail

// --- lifecycle -------------------------------------------------------------

void on_tx_begin(bool direct_mode) noexcept {
  if (!active()) return;
  State& s = state();
  t_tx.in_tx = true;
  t_tx.direct_mode = direct_mode;
  t_tx.opacity_skip = false;
  t_tx.interval =
      s.interval_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  t_tx.raw_seq_at_begin = s.raw_seq.load(std::memory_order_acquire);
  t_tx.reads.clear();
  t_tx.writes.clear();
  s.active_interval[thread_id()].store(t_tx.interval,
                                       std::memory_order_release);
}

void on_tx_commit(std::uint64_t primary_key) noexcept {
  // Still runs when disabled mid-transaction: the active-interval slot
  // published by on_tx_begin must be withdrawn either way.
  if (!active() && !t_tx.in_tx) return;
  State& s = state();
  s.active_interval[thread_id()].store(0, std::memory_order_release);
  if (active(kCheckOpacity) && t_tx.in_tx && !t_tx.opacity_skip) {
    std::uint64_t self = 0;
    if (!t_tx.writes.empty()) {
      self = detail::opacity_commit_writes(t_tx.writes, primary_key);
    }
    if (!t_tx.reads.empty()) {
      // Validate against history minus this commit's own versions: every
      // read here predates the write set that was just filed.
      detail::opacity_validate_reads(t_tx.reads, "commit", self);
    }
  }
  // Publication: the commit orders this attempt's private initialization
  // of fresh allocations before any reader that can reach them (we run
  // before the locks/sequence publishing the writes are released), so
  // those raw marks must not survive as phantom racers.
  detail::retire_tx_allocs();
  t_tx = TxLog{};
}

void on_tx_abort() noexcept {
  if (!active() && !t_tx.in_tx) return;
  State& s = state();
  s.active_interval[thread_id()].store(0, std::memory_order_release);
  // Opacity holds for aborted transactions too: everything read up to the
  // abort must still have been one consistent snapshot.
  if (active(kCheckOpacity) && t_tx.in_tx && !t_tx.opacity_skip &&
      !t_tx.reads.empty()) {
    detail::opacity_validate_reads(t_tx.reads, "abort");
  }
  // The rollback freed this attempt's fresh allocations; their raw
  // initialization marks describe memory that no longer exists.
  detail::retire_tx_allocs();
  t_tx = TxLog{};
}

void on_nested_abort() noexcept { t_tx.opacity_skip = true; }

void on_tx_resume(std::size_t mark) noexcept {
  if (!t_tx.in_tx) return;
  if (mark > t_tx.reads.size()) {
    t_tx.opacity_skip = true;
  } else {
    t_tx.reads.resize(mark);
  }
  t_tx.raw_seq_at_begin = state().raw_seq.load(std::memory_order_acquire);
}

// --- deferral contract -----------------------------------------------------

void on_defer_registered(const void* const* locks, std::size_t n) noexcept {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.defer_mutex);
  for (std::size_t i = 0; i < n; ++i) ++s.pending[locks[i]];
}

void on_defer_cancelled(const void* const* locks, std::size_t n) noexcept {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.defer_mutex);
  for (std::size_t i = 0; i < n; ++i) {
    auto it = s.pending.find(locks[i]);
    if (it != s.pending.end() && it->second > 0) --it->second;
  }
}

void epilogue_begin(const void* const* locks, std::size_t n) noexcept {
  t_epi_stack.emplace_back(locks, locks + n);
}

void epilogue_end(const void* const* locks, std::size_t n) noexcept {
  // The epilogue is done: it no longer pends on its locks, so the
  // releases that follow are legitimate free transitions.
  on_defer_cancelled(locks, n);
  if (!t_epi_stack.empty()) t_epi_stack.pop_back();
}

void on_lock_freed(const void* lock) noexcept {
  if (!active(kCheckDeferral)) return;
  State& s = state();
  std::uint64_t pending = 0;
  {
    std::lock_guard<std::mutex> lk(s.defer_mutex);
    auto it = s.pending.find(lock);
    if (it != s.pending.end()) pending = it->second;
  }
  if (pending == 0) return;
  Stack here;
  detail::capture_stack(here);
  detail::record_violation(
      ViolationKind::EarlyLockRelease, lock, thread_id(), 0,
      "TxLock " + addr_str(lock) + " reached the free state with " +
          std::to_string(pending) +
          " deferred epilogue(s) registered under it still pending",
      detail::format_stack(here), "");
}

void cover(const void* base, std::size_t bytes, const void* lock) {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.defer_mutex);
  const auto b = reinterpret_cast<std::uintptr_t>(base);
  s.cover[b] = CoverRange{b + bytes, lock};
}

// --- control / reports -----------------------------------------------------

void enable(std::uint32_t mask) {
  State& s = state();
  g_stack_sample.store(runtime_config().tmsan_stack_sample,
                       std::memory_order_relaxed);
  if (s.shadow.load(std::memory_order_acquire) == nullptr) {
    auto* table = new ShadowEntry[kShadowSize];
    ShadowEntry* expected = nullptr;
    if (!s.shadow.compare_exchange_strong(expected, table,
                                          std::memory_order_acq_rel)) {
      delete[] table;  // lost the allocation race
    }
  }
  detail::g_mode.fetch_or(mask & kCheckAll, std::memory_order_relaxed);
}

void disable(std::uint32_t mask) {
  detail::g_mode.fetch_and(~mask, std::memory_order_relaxed);
}

void reset() {
  State& s = state();
  {
    std::lock_guard<std::mutex> lk(s.report_mutex);
    s.violations.clear();
  }
  for (auto& c : s.counts) c.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(s.defer_mutex);
    s.pending.clear();
    s.cover.clear();
  }
  if (ShadowEntry* table = shadow_table()) {
    for (std::size_t i = 0; i < kShadowSize; ++i) {
      std::lock_guard<std::mutex> lk(s.stripes[i % kStripes]);
      table[i] = ShadowEntry{};
    }
  }
  detail::opacity_reset();
}

std::size_t violation_count() {
  State& s = state();
  std::uint64_t n = 0;
  for (const auto& c : s.counts) n += c.load(std::memory_order_relaxed);
  return static_cast<std::size_t>(n);
}

std::size_t violation_count(ViolationKind k) {
  return static_cast<std::size_t>(
      state().counts[static_cast<std::size_t>(k)].load(
          std::memory_order_relaxed));
}

std::vector<Violation> violations() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.report_mutex);
  return s.violations;
}

std::string report() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.report_mutex);
  std::string out;
  for (const Violation& v : s.violations) {
    out += "tmsan: ";
    out += violation_name(v.kind);
    out += ": ";
    out += v.detail;
    out += '\n';
    if (!v.stack_a.empty()) {
      out += " reporting side (thread " + std::to_string(v.tid_a) + "):\n";
      out += v.stack_a;
    }
    if (!v.stack_b.empty()) {
      out += " other side (thread " + std::to_string(v.tid_b) + "):\n";
      out += v.stack_b;
    }
  }
  return out;
}

ScopedRawIgnore::ScopedRawIgnore() noexcept { ++t_raw_ignore; }
ScopedRawIgnore::~ScopedRawIgnore() { --t_raw_ignore; }

// The checkers follow adtm::configure() like the obs layer does, so tests
// and embedders flip them without touching the environment.
namespace {
const bool g_config_applier = [] {
  adtm::detail::register_config_applier([](const RuntimeConfig& cfg) {
    if (cfg.tmsan) {
      enable(kCheckRace | kCheckDeferral);
    } else {
      disable(kCheckRace | kCheckDeferral);
    }
    if (cfg.tmsan_opacity) {
      enable(kCheckOpacity);
    } else {
      disable(kCheckOpacity);
    }
  });
  return true;
}();
}  // namespace

}  // namespace adtm::tmsan
