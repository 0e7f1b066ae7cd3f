// Distributed two-phase locking backend ("2pl", Algo::TwoPL): the Tx
// members named twopl_*, which Tx's access paths dispatch to.
//
// After the 2PLUndo/2PLUndoDist lineage: writes take per-orec write locks
// at encounter time and go in place under an undo log (exactly the Eager
// machinery: the same Tx undo and lock logs); reads are *pessimistic* — a
// reader publishes a per-thread reader indicator for the line's slot
// before sampling the word, and a writer must drain every rival reader
// indicator for a slot before it may overwrite the line. Both sides hold
// their ownership until commit (two-phase), so a transaction never
// observes a mix of old and new state and needs no read validation at
// all: read-only transactions commit with zero compare work, which is
// the abort-light property that makes 2PL strong exactly where the
// optimistic algorithms thrash (validation storms under write-heavy
// contention).
//
// Reader indicators are distributed thread-major —
// indicator[tid][slot] — so the reader fast path touches only its own
// row (no cross-thread cache-line traffic; the scalable-reader-indicator
// idea). Writers scan one column, bounded by a registered-thread
// high-water mark, so the drain costs live-thread loads rather than
// kMaxThreads. Slots fold the orec index down (collisions are benign:
// false conflicts only, never missed ones).
//
// The store/load protocol is the classic Dekker handshake, all seq_cst:
//   reader: publish indicator; load orec            — sees any prior lock
//   writer: CAS orec locked;   scan indicators      — sees any prior reader
// Of any racing pair, at least one side observes the other, so a reader
// can never sample a word a writer is concurrently mutating.
//
// Deadlock freedom: every wait here is bounded (spin budgets) and
// resolves to a ConflictAbort, whose rollback revokes all ownership —
// there is no unbounded hold-and-wait. Waits are made visible to the
// liveness watchdog via wait-graph edges published while a writer drains
// a stubborn reader.
#include <cstdint>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "common/panic.hpp"
#include "common/thread_id.hpp"
#include "common/tsan.hpp"
#include "liveness/wait_graph.hpp"
#include "stm/orec.hpp"
#include "stm/registry.hpp"
#include "stm/runtime.hpp"
#include "stm/tx.hpp"
#include "tmsan/tmsan.hpp"

namespace adtm::stm {

namespace {

// 2^12 indicator slots per thread: 4 KiB rows, 512 KiB total. Coarser
// than the orec table (2^20) — the fold below maps many orecs onto one
// slot, which only ever manufactures false reader/writer conflicts.
constexpr std::size_t kSlotCountLog2 = 12;
constexpr std::size_t kSlotCount = std::size_t{1} << kSlotCountLog2;

struct alignas(64) IndicatorRow {
  std::atomic<std::uint8_t> slots[kSlotCount];
};

IndicatorRow g_indicators[kMaxThreads];

// Threads that have ever run a 2PL transaction; writers drain rows
// [0, highwater) only. Bumped (seq_cst) before a thread's first
// indicator store, so a writer that read a stale high-water mark
// necessarily ordered its lock CAS before that reader's orec load — the
// Dekker argument covers the missed row.
std::atomic<std::uint32_t> g_tid_highwater{0};

std::uint16_t slot_of(const Orec& o) noexcept {
  const std::size_t idx =
      static_cast<std::size_t>(&o - detail::g_orecs);
  return static_cast<std::uint16_t>((idx ^ (idx >> kSlotCountLog2)) &
                                    (kSlotCount - 1));
}

// Drops the indicators in `held` (Tx::twopl_held_). Only the owning
// thread writes its indicator row, so "already held" is a relaxed load of
// our own byte.
void clear_indicators(std::uint32_t tid,
                      std::vector<std::uint16_t>& held) noexcept {
  for (const std::uint16_t slot : held) {
    // pairs-with: twopl_drain_readers()'s seq_cst indicator loads: a
    // writer that sees 0 overwrites the line only after our reads of it.
    g_indicators[tid].slots[slot].store(0, std::memory_order_release);
  }
  held.clear();
}

// Wait-graph owner resolution for a writer parked on a reader indicator:
// the entity pointer is the indicator byte; its row index is the reader.
std::uint32_t indicator_owner(const void* entity) noexcept {
  const auto addr = reinterpret_cast<std::uintptr_t>(entity);
  const auto base = reinterpret_cast<std::uintptr_t>(&g_indicators[0]);
  return static_cast<std::uint32_t>((addr - base) / sizeof(IndicatorRow));
}

}  // namespace

// Drain rival reader indicators for `slot` after taking a write lock.
// Bounded: a stubborn reader (it is spinning on one of our locked orecs,
// or running a long transaction) costs us a spin budget and then a
// conflict abort — rollback revokes the lock, so reader/writer cycles
// always break.
void Tx::twopl_drain_readers(std::uint16_t slot) {
  // pairs-with: twopl_begin()'s seq_cst high-water CAS.
  const std::uint32_t hw = g_tid_highwater.load(std::memory_order_seq_cst);
  const Config& cfg = detail::runtime().config;
  const std::uint32_t budget = cfg.lock_spin_limit * 16;
  for (std::uint32_t t = 0; t < hw; ++t) {
    if (t == tid_) continue;
    auto& ind = g_indicators[t].slots[slot];
    // pairs-with: twopl_read()'s seq_cst indicator store (the writer
    // half of the Dekker handshake: CAS the orec, then scan) and
    // clear_indicators()' release store.
    if (ind.load(std::memory_order_seq_cst) == 0) continue;
    std::uint32_t spins = 0;
    bool published = false;
    // pairs-with: clear_indicators()' release store.
    while (ind.load(std::memory_order_seq_cst) != 0) {
      if (++spins > budget) {
        if (published) liveness::clear_wait();
        conflict_abort(obs::AbortCause::ConflictLockBusy);
      }
      if ((spins & 255u) == 0) {
        // Let the reader run and surface the wait to the watchdog.
        if (!published) {
          liveness::publish_wait(&ind, indicator_owner, "2pl-drain-readers");
          published = true;
        }
        std::this_thread::yield();
      }
      cpu_relax();
    }
    if (published) liveness::clear_wait();
  }
}

void Tx::twopl_lock_orec(Orec& o) {
  std::uint32_t spins = 0;
  for (;;) {
    // pairs-with: the previous owner's release store of the orec
    // (LockLog::release_all at commit, restore_from at rollback).
    OrecWord s = o.load(std::memory_order_acquire);
    if (orec_locked(s)) {
      if (orec_locked_by(s, tid_)) return;  // already ours, already drained
      arbitrate_busy_orec(spins);
      continue;
    }
    // Pessimistic locking has no snapshot to keep valid: the version in
    // the pre-lock word is preserved for restore_all, never compared.
    // pairs-with: twopl_read()'s seq_cst orec load (the Dekker handshake:
    // of a racing reader and writer, at least one sees the other).
    if (o.compare_exchange_weak(s, make_orec_locked(tid_),
                                std::memory_order_seq_cst)) {
      ADTM_TSAN_ACQUIRE(&o);
      locks_.push(&o, s);
      twopl_drain_readers(slot_of(o));
      return;
    }
  }
}

void Tx::twopl_begin() {
  ADTM_INVARIANT(twopl_held_.empty(),
                 "2pl: reader indicators leaked into a new transaction");
  std::uint32_t hw = g_tid_highwater.load(std::memory_order_relaxed);
  while (tid_ >= hw) {
    // pairs-with: twopl_drain_readers()'s seq_cst high-water load; the
    // bump precedes this thread's first indicator store.
    if (g_tid_highwater.compare_exchange_weak(hw, tid_ + 1,
                                              std::memory_order_seq_cst)) {
      break;
    }
  }
}

std::uint64_t Tx::twopl_read(const detail::Word* addr) {
  Orec& o = orec_for(addr);
  {
    // pairs-with: our own lock CAS (program order); for any other
    // owner, the release store that freed the orec.
    const OrecWord s = o.load(std::memory_order_acquire);
    if (orec_locked_by(s, tid_)) {
      // We hold the line's write lock: the in-place value is ours (and
      // already filed by the write barrier — mirror the Eager path).
      return addr->load(std::memory_order_relaxed);
    }
  }
  const std::uint16_t slot = slot_of(o);
  auto& mine = g_indicators[tid_].slots[slot];
  if (mine.load(std::memory_order_relaxed) == 0) {
    // pairs-with: twopl_drain_readers()'s seq_cst indicator loads (the
    // reader half of the Dekker handshake: publish, then load the orec).
    mine.store(1, std::memory_order_seq_cst);
    twopl_held_.push_back(slot);
  }
  std::uint32_t spins = 0;
  for (;;) {
    // pairs-with: twopl_lock_orec()'s seq_cst CAS (Dekker), and the
    // committing writer's release store of the orec.
    const OrecWord s = o.load(std::memory_order_seq_cst);
    if (orec_locked(s)) {
      // A writer won the handshake; it is (or will be) draining our
      // indicator, so spinning here is bounded by its progress — the
      // shared arbitration aborts us once the budget is spent, and
      // rollback clears our indicators out of its way.
      arbitrate_busy_orec(spins);
      continue;
    }
    // Unlocked with our indicator published: any writer that locks the
    // orec after this sample must drain us before mutating the line, so
    // the value is stable until we commit — no recheck, no validation.
    // pairs-with: the last writer's in-place store, published by its
    // orec release that the load above acquired.
    const std::uint64_t v = addr->load(std::memory_order_seq_cst);
    reads_.push(&o, s);  // retry() watch entries only
    tmsan::on_tx_read(addr, v);
    return v;
  }
}

void Tx::twopl_write(detail::Word* addr, std::uint64_t value) {
  Orec& o = orec_for(addr);
  twopl_lock_orec(o);
  undo_.push(addr, addr->load(std::memory_order_relaxed));
  addr->store(value, std::memory_order_relaxed);
  tmsan::on_tx_write(addr, value);
}

void Tx::twopl_commit() {
  if (locks_.empty()) {
    // Read-only: every read is still protected by our indicators right
    // now, so the snapshot is trivially current — commit without
    // comparing anything (the pessimistic payoff).
    reads_.clear();
    clear_indicators(tid_, twopl_held_);
    detail::registry_leave();
    tmsan::on_tx_commit(0);  // read-only: nothing enters the history
    in_tx_ = false;
    return;
  }
  const std::uint64_t wt = clock_advance();
  // File the write set before releasing the write locks (the ABA-filing
  // rule shared with the orec algorithms: rivals spin on the locked
  // orecs, so no published value can be observed before its history
  // record exists) and before registry_leave (direct-mode ties must find
  // the record filed).
  tmsan::on_tx_commit(wt);
  locks_.release_all(make_orec_version(wt));
  locks_.clear();
  undo_.clear();
  reads_.clear();
  clear_indicators(tid_, twopl_held_);
  detail::registry_leave();
  commit_ts_ = wt;
  in_tx_ = false;
}

void Tx::twopl_rollback() noexcept {
  // Release read ownership first; the generic rollback then replays the
  // undo log and restores the orec locks (our writes stay lock-protected
  // until restored).
  clear_indicators(tid_, twopl_held_);
}

}  // namespace adtm::stm
