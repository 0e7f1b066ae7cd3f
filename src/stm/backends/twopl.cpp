// Distributed two-phase locking backend ("2pl").
//
// After the 2PLUndo/2PLUndoDist lineage: writes take per-orec write locks
// at encounter time and go in place under an undo log (exactly the Eager
// machinery, reused through BackendSpi); reads are *pessimistic* — a
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
// Deadlock freedom: every wait here is bounded (spin budgets, priority
// patience) and resolves to a ConflictAbort, whose rollback revokes all
// ownership — there is no unbounded hold-and-wait. Waits are made
// visible to the liveness watchdog via wait-graph edges published while
// a writer drains a stubborn reader.
#include <cstdint>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "common/panic.hpp"
#include "common/stats.hpp"
#include "common/thread_id.hpp"
#include "common/timing.hpp"
#include "liveness/contention.hpp"
#include "liveness/wait_graph.hpp"
#include "stm/backend_spi.hpp"
#include "stm/backends/backends.hpp"
#include "stm/orec.hpp"
#include "stm/registry.hpp"
#include "stm/runtime.hpp"
#include "tmsan/tmsan.hpp"

namespace adtm::stm::backends {

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

// Per-transaction extension state: the slots whose indicator this thread
// holds. Only the owning thread writes its indicator row, so "already
// held" is a relaxed load of our own byte.
struct TxState {
  std::vector<std::uint16_t> held;
};

TxState& tls_state() noexcept {
  thread_local TxState st;
  return st;
}

std::uint16_t slot_of(const Orec& o) noexcept {
  const std::size_t idx =
      static_cast<std::size_t>(&o - detail::g_orecs);
  return static_cast<std::uint16_t>((idx ^ (idx >> kSlotCountLog2)) &
                                    (kSlotCount - 1));
}

void clear_indicators(std::uint32_t tid) noexcept {
  TxState& st = tls_state();
  for (const std::uint16_t slot : st.held) {
    g_indicators[tid].slots[slot].store(0, std::memory_order_release);
  }
  st.held.clear();
}

// Wait-graph owner resolution for a writer parked on a reader indicator:
// the entity pointer is the indicator byte; its row index is the reader.
std::uint32_t indicator_owner(const void* entity) noexcept {
  const auto addr = reinterpret_cast<std::uintptr_t>(entity);
  const auto base = reinterpret_cast<std::uintptr_t>(&g_indicators[0]);
  return static_cast<std::uint32_t>((addr - base) / sizeof(IndicatorRow));
}

// Drain rival reader indicators for `slot` after taking a write lock.
// Bounded: a stubborn reader (it is spinning on one of our locked orecs,
// or running a long transaction) costs us a spin budget and then a
// conflict abort — rollback revokes the lock, so reader/writer cycles
// always break. Privileged (starved) writers outwait up to the priority
// patience bound instead, mirroring arbitrate_busy_orec.
void drain_readers(Tx& tx, std::uint16_t slot) {
  const std::uint32_t tid = BackendSpi::tid(tx);
  const std::uint32_t hw = g_tid_highwater.load(std::memory_order_seq_cst);
  const Config& cfg = detail::runtime().config;
  const std::uint32_t budget = cfg.lock_spin_limit * 16;
  for (std::uint32_t t = 0; t < hw; ++t) {
    if (t == tid) continue;
    auto& ind = g_indicators[t].slots[slot];
    if (ind.load(std::memory_order_seq_cst) == 0) continue;
    std::uint32_t spins = 0;
    std::uint64_t patience_deadline = 0;
    bool published = false;
    const bool priv = BackendSpi::priority(tx);
    if (priv) patience_deadline = now_ns() + cfg.priority_wait_ns;
    while (ind.load(std::memory_order_seq_cst) != 0) {
      ++spins;
      if (!priv && spins > budget) {
        if (published) liveness::clear_wait();
        stats().add(Counter::CmPriorityYields);
        BackendSpi::conflict_abort(tx,
                                   obs::AbortCause::ConflictLockBusy);
      }
      if ((spins & 255u) == 0) {
        // Let the reader run, surface the wait to the watchdog, and
        // honor the privileged patience bound without a clock read per
        // spin.
        if (!published) {
          liveness::publish_wait(&ind, indicator_owner, "2pl-drain-readers");
          published = true;
        }
        std::this_thread::yield();
        if (priv && now_ns() >= patience_deadline) {
          liveness::clear_wait();
          BackendSpi::conflict_abort(tx,
                                     obs::AbortCause::ConflictLockBusy);
        }
      }
      cpu_relax();
    }
    if (published) liveness::clear_wait();
  }
}

void lock_orec(Tx& tx, Orec& o) {
  const std::uint32_t tid = BackendSpi::tid(tx);
  std::uint32_t spins = 0;
  std::uint64_t patience_deadline = 0;
  bool outwaited = false;
  for (;;) {
    OrecWord s = o.load(std::memory_order_acquire);
    if (orec_locked(s)) {
      if (orec_locked_by(s, tid)) return;  // already ours, already drained
      BackendSpi::arbitrate_busy_orec(tx, s, spins, patience_deadline,
                                      outwaited);
      continue;
    }
    // Pessimistic locking has no snapshot to keep valid: the version in
    // the pre-lock word is preserved for restore_all, never compared.
    if (o.compare_exchange_weak(s, make_orec_locked(tid),
                                std::memory_order_seq_cst)) {
      ADTM_TSAN_ACQUIRE(&o);
      BackendSpi::locks(tx).push(&o, s);
      if (outwaited) stats().add(Counter::CmPriorityWins);
      drain_readers(tx, slot_of(o));
      return;
    }
  }
}

void twopl_begin(Tx& tx) {
  TxState& st = tls_state();
  ADTM_INVARIANT(st.held.empty(),
                 "2pl: reader indicators leaked into a new transaction");
  const std::uint32_t tid = BackendSpi::tid(tx);
  std::uint32_t hw = g_tid_highwater.load(std::memory_order_relaxed);
  while (tid >= hw) {
    if (g_tid_highwater.compare_exchange_weak(hw, tid + 1,
                                              std::memory_order_seq_cst)) {
      break;
    }
  }
}

std::uint64_t twopl_read(Tx& tx, const detail::Word* addr) {
  Orec& o = orec_for(addr);
  const std::uint32_t tid = BackendSpi::tid(tx);
  {
    const OrecWord s = o.load(std::memory_order_acquire);
    if (orec_locked_by(s, tid)) {
      // We hold the line's write lock: the in-place value is ours (and
      // already filed by the write barrier — mirror the Eager path).
      return addr->load(std::memory_order_relaxed);
    }
  }
  const std::uint16_t slot = slot_of(o);
  auto& mine = g_indicators[tid].slots[slot];
  if (mine.load(std::memory_order_relaxed) == 0) {
    mine.store(1, std::memory_order_seq_cst);
    tls_state().held.push_back(slot);
  }
  std::uint32_t spins = 0;
  std::uint64_t patience_deadline = 0;
  bool outwaited = false;
  for (;;) {
    const OrecWord s = o.load(std::memory_order_seq_cst);
    if (orec_locked(s)) {
      // A writer won the handshake; it is (or will be) draining our
      // indicator, so spinning here is bounded by its progress — the
      // shared arbitration aborts us once the budget is spent, and
      // rollback clears our indicators out of its way.
      BackendSpi::arbitrate_busy_orec(tx, s, spins, patience_deadline,
                                      outwaited);
      continue;
    }
    // Unlocked with our indicator published: any writer that locks the
    // orec after this sample must drain us before mutating the line, so
    // the value is stable until we commit — no recheck, no validation.
    const std::uint64_t v = addr->load(std::memory_order_seq_cst);
    BackendSpi::reads(tx).push(&o, s);  // retry() watch entries only
    if (outwaited) stats().add(Counter::CmPriorityWins);
    tmsan::on_tx_read(addr, v);
    return v;
  }
}

void twopl_write(Tx& tx, detail::Word* addr, std::uint64_t value) {
  Orec& o = orec_for(addr);
  lock_orec(tx, o);
  BackendSpi::undo(tx).push(addr, addr->load(std::memory_order_relaxed));
  addr->store(value, std::memory_order_relaxed);
  tmsan::on_tx_write(addr, value);
}

void twopl_commit(Tx& tx) {
  const std::uint32_t tid = BackendSpi::tid(tx);
  auto& locks = BackendSpi::locks(tx);
  if (locks.empty()) {
    // Read-only: every read is still protected by our indicators right
    // now, so the snapshot is trivially current — commit without
    // comparing anything (the pessimistic payoff).
    BackendSpi::reads(tx).clear();
    clear_indicators(tid);
    detail::registry_leave();
    tmsan::on_tx_commit(0);  // read-only: nothing enters the history
    BackendSpi::finish_commit(tx, 0);
    return;
  }
  const std::uint64_t wt = clock_advance();
  // File the write set before releasing the write locks (the ABA-filing
  // rule shared with the orec algorithms: rivals spin on the locked
  // orecs, so no published value can be observed before its history
  // record exists) and before registry_leave (direct-mode ties must find
  // the record filed).
  tmsan::on_tx_commit(wt);
  locks.release_all(make_orec_version(wt));
  locks.clear();
  BackendSpi::undo(tx).clear();
  BackendSpi::reads(tx).clear();
  clear_indicators(tid);
  detail::registry_leave();
  BackendSpi::finish_commit(tx, wt);
}

void twopl_rollback(Tx& tx) {
  // Release read ownership first; the generic rollback then replays the
  // undo log and restores the orec locks (our writes stay lock-protected
  // until restored).
  clear_indicators(BackendSpi::tid(tx));
}

const BackendOps kTwoplOps = {
    &twopl_begin, &twopl_read, &twopl_write, &twopl_commit, &twopl_rollback,
};

}  // namespace

void register_twopl_backend(BackendRegistry& reg) {
  Backend b;
  b.id = "2pl";
  b.name = "2PL";
  b.caps = kBackendRollback | kBackendIrrevocable | kBackendSerialGate |
           kBackendInPlaceWrites | kBackendPessimisticReads |
           kBackendAdaptive;
  b.core = Algo::Eager;  // serial-mode + snapshot behavior; in-place writes
  b.ops = &kTwoplOps;
  reg.register_backend(b);
}

}  // namespace adtm::stm::backends
