#include "stm/tx.hpp"

#include <cstdlib>
#include <new>

#include "common/backoff.hpp"
#include "common/panic.hpp"
#include "common/stats.hpp"
#include "common/tsan.hpp"
#include "liveness/activity.hpp"
#include "stm/backend.hpp"
#include "liveness/wait_graph.hpp"
#include "stm/control.hpp"
#include "stm/orec.hpp"
#include "stm/registry.hpp"
#include "stm/runtime.hpp"
#include "tmsan/tmsan.hpp"

namespace adtm::stm {

using detail::ConflictAbort;
using detail::CapacityAbort;

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

namespace {

// NOrec: wait until the global sequence lock is even (no writer
// publishing) and return it.
std::uint64_t norec_snapshot() noexcept {
  auto& seq = detail::runtime().norec_seq;
  for (;;) {
    // pairs-with: commit_norec()'s release store of the even sequence
    // (and unify_serialization_clocks()', backend.cpp): the snapshot sees
    // every write published at or before it.
    const std::uint64_t s = seq.load(std::memory_order_acquire);
    if ((s & 1) == 0) {
      ADTM_TSAN_ACQUIRE(&seq);
      return s;
    }
    cpu_relax();
  }
}

}  // namespace

void Tx::begin(Algo algo, Mode mode, std::uint32_t attempt) {
  ADTM_INVARIANT(!in_tx_, "begin() on an active transaction");
  mode_ = mode;
  algo_ = algo;
  attempt_ = attempt;
  tid_ = thread_id();
  commit_ts_ = 0;
  wrote_direct_ = false;
  reads_.clear();
  writes_.clear();
  undo_.clear();
  locks_.clear();
  norec_reads_.clear();
  if (mode_ == Mode::Speculative) {
    start_ = (algo_ == Algo::NOrec) ? norec_snapshot() : clock_now();
    detail::registry_enter(start_);
    // registry_enter may have waited for a serial writer: refresh the
    // snapshot so we do not start in the past relative to its effects.
    start_ = (algo_ == Algo::NOrec) ? norec_snapshot() : clock_now();
    // pairs-with: quiesce_until()'s and acquire_serial_gate()'s acquire
    // loads of active_since (registry.cpp); seq_cst like registry_enter()'s
    // own publish, so the gate handshake's order is kept.
    detail::my_slot().active_since.store(start_, std::memory_order_seq_cst);
  }
  // Snapshot for retry's serial-commit watch: taken before any read so a
  // serial commit overlapping this attempt always wakes the waiter.
  // pairs-with: the serial commit's acq_rel serial_commits increment
  // (api.cpp, Driver::leave).
  retry_serial_snap_ =
      detail::runtime().serial_commits.load(std::memory_order_acquire);
  // Same argument for the thread-exit watch: an owner that exits between a
  // failed ownership check and the park must still wake the waiter.
  retry_exit_snap_ = thread_exit_count();
  // A wait edge published by the previous attempt (which parked on a lock
  // and was woken) is stale once a new attempt starts.
  if (liveness::has_wait_edge()) liveness::clear_wait();
  // No stamp: the watchdog times only the wait and deferred-op states.
  liveness::set_state(liveness::ThreadState::InTx, 0);
  in_tx_ = true;
  stats().add(Counter::TxStart);
  tmsan::on_tx_begin(mode_ != Mode::Speculative);
  // 2PL checks its per-attempt state last, with all the common
  // bookkeeping (registry slot, snapshot, liveness) in place.
  if (mode_ == Mode::Speculative && algo_ == Algo::TwoPL) twopl_begin();
}

void Tx::commit() {
  if (mode_ != Mode::Speculative) {
    // Direct modes have already applied their effects. The opacity
    // primary key is a post-effect clock/seq sample: every speculative
    // transaction serialized after this one observes at least this value.
    if (tmsan::active()) {
      // pairs-with: commit_norec()'s release store of the even sequence.
      tmsan::on_tx_commit(
          algo_ == Algo::NOrec
              ? detail::runtime().norec_seq.load(std::memory_order_acquire)
              : clock_now());
    }
    in_tx_ = false;
    return;
  }
  if (algo_ == Algo::NOrec) {
    commit_norec();
    return;
  }
  if (algo_ == Algo::TwoPL) {
    twopl_commit();
    return;
  }
  const bool read_only = (algo_ == Algo::TL2) ? writes_.empty() : locks_.empty();
  if (read_only) {
    // Commit-time validation: the transaction linearizes at commit, not at
    // its start timestamp. Incremental (start-time) validity is not enough
    // for the paper's subscribe pattern — a deferred operation may write
    // lock-protected data *directly* (no orec updates), and the only
    // conflict trace it leaves is the lock owner's orec changing when the
    // lock was acquired. Re-validating the read set here catches that:
    // a subscriber whose lock word changed after it subscribed aborts
    // instead of returning a view mixing old transactional state with new
    // directly-written state. Skipped when nothing committed since our
    // snapshot (direct writes only happen after a lock-acquiring commit).
    if (clock_now() != start_) {
      validate_reads();  // throws ConflictAbort; rollback() cleans up
    }
    reads_.clear();
    detail::registry_leave();
    tmsan::on_tx_commit(0);  // read-only: nothing enters the history
    in_tx_ = false;
    return;
  }

  if (algo_ == Algo::TL2) {
    // Lazy versioning: acquire all write locks now, then publish.
    for (const auto& e : writes_.entries()) {
      lock_orec_for_write(orec_for(e.addr));
    }
  }

  const std::uint64_t wt = clock_advance();
  if (wt != start_ + 1) {
    validate_reads();  // throws ConflictAbort; rollback() cleans up
  }

  if (algo_ == Algo::TL2) {
    for (const auto& e : writes_.entries()) {
      e.addr->store(e.value, std::memory_order_relaxed);
    }
  }
  // Record the write set in the opacity history before releasing the
  // write locks: rival readers spin on the locked orecs, so no value this
  // commit publishes can be observed — let alone validated against the
  // history — before its record is filed. Filing after release leaves a
  // window where a reader validates a value whose version is missing
  // (usually just "unverifiable", but under address-recycling ABA the
  // value maps onto a stale interval: a false inconsistency). Also before
  // leaving the registry: the serial gate drains registry slots, so a
  // direct-mode transaction that ties this one's primary key (the clock
  // does not advance for direct commits) must find this record already
  // filed — arrival order then matches real commit order.
  tmsan::on_tx_commit(wt);
  locks_.release_all(make_orec_version(wt));
  locks_.clear();
  undo_.clear();
  writes_.clear();
  reads_.clear();
  detail::registry_leave();
  // The driver quiesces against this (paper §2). The paper's Listing 1
  // marks Quiesce() as STM-only because hardware commits are
  // instantaneous; our HTM *simulation* has a commit/abort cleanup
  // window, so it quiesces too to keep the strong isolation real HTM
  // provides.
  commit_ts_ = wt;
  in_tx_ = false;
}

void Tx::commit_norec() {
  auto& seq = detail::runtime().norec_seq;
  if (writes_.empty()) {
    // Read-only: linearize at commit (see the orec-path comment); here
    // the validation is by value, so even a direct (lock-protected) write
    // by a deferred operation is caught.
    // pairs-with: commit_norec()'s release store of the even sequence.
    if (seq.load(std::memory_order_acquire) != start_) {
      (void)norec_validate();  // throws ConflictAbort on mismatch
    }
    norec_reads_.clear();
    detail::registry_leave();
    tmsan::on_tx_commit(0);  // read-only: nothing enters the history
    in_tx_ = false;
    return;
  }

  // Acquire the sequence lock at a snapshot we are valid at.
  // pairs-with: the previous writer's release store of the even sequence
  // below (acquire half); the odd value it publishes makes readers wait
  // out our writeback (release half).
  std::uint64_t s = start_;
  while (!seq.compare_exchange_weak(s, s + 1, std::memory_order_acq_rel)) {
    s = norec_validate();  // adopt a newer consistent snapshot (or abort)
  }
  for (const auto& e : writes_.entries()) {
    e.addr->store(e.value, std::memory_order_relaxed);
  }
  // File the write set while the sequence lock is still odd: readers wait
  // for an even sequence, so publication (the store below) cannot beat the
  // history record — same ABA-filing argument as the orec path. Also
  // before registry_leave: a direct-mode commit tying this primary key
  // (norec_seq is not bumped by direct commits) is gated behind our
  // registry slot.
  tmsan::on_tx_commit(s + 2);
  ADTM_TSAN_RELEASE(&seq);
  // pairs-with: the acquire loads of norec_seq in norec_snapshot(),
  // norec_validate(), read_word_norec() and the read-only commit above:
  // a reader that sees s + 2 sees the writeback.
  seq.store(s + 2, std::memory_order_release);

  norec_reads_.clear();
  writes_.clear();
  detail::registry_leave();
  commit_ts_ = s + 2;
  in_tx_ = false;
}

std::uint64_t Tx::norec_validate() {
  auto& seq = detail::runtime().norec_seq;
  for (;;) {
    // pairs-with: commit_norec()'s release store of the even sequence.
    const std::uint64_t s = seq.load(std::memory_order_acquire);
    if ((s & 1) != 0) {
      cpu_relax();
      continue;
    }
    for (const auto& e : norec_reads_.entries()) {
      // pairs-with: commit_norec()'s release store of the even sequence,
      // which published the value; acquire also keeps the sequence
      // re-check below after this load (a relaxed load could drift past
      // it).
      if (e.addr->load(std::memory_order_acquire) != e.value) {
        throw detail::ConflictAbort{obs::AbortCause::ConflictNorecValue};
      }
    }
    // pairs-with: commit_norec()'s acq_rel CAS to odd: an unchanged even
    // sequence means no writeback overlapped the value checks.
    if (seq.load(std::memory_order_acquire) == s) {
      ADTM_TSAN_ACQUIRE(&seq);
      start_ = s;
      return s;
    }
  }
}

std::uint64_t Tx::read_word_norec(const detail::Word* addr) {
  std::uint64_t buffered;
  if (writes_.lookup(addr, &buffered)) return buffered;
  auto& seq = detail::runtime().norec_seq;
  // pairs-with: commit_norec()'s release store of the even sequence that
  // begin() or norec_validate() acquired, which published the value;
  // acquire also keeps the sequence check below after this load.
  std::uint64_t v = addr->load(std::memory_order_acquire);
  // pairs-with: commit_norec()'s acq_rel CAS to odd and release store of
  // the even sequence: unchanged means no writeback raced the load.
  while (seq.load(std::memory_order_acquire) != start_) {
    (void)norec_validate();  // re-snapshot; aborts if a prior read changed
    // pairs-with: as the first load above.
    v = addr->load(std::memory_order_acquire);
  }
  norec_reads_.push(addr, v);
  tmsan::on_tx_read(addr, v);
  return v;
}

void Tx::rollback() noexcept {
  // 2PL reader indicators go before the generic undo/lock unwinding.
  if (algo_ == Algo::TwoPL) twopl_rollback();
  undo_.rollback();
  undo_.clear();
  locks_.restore_all();
  locks_.clear();
  reads_.clear();
  norec_reads_.clear();
  writes_.clear();
  for (void* p : allocs_) std::free(p);
  allocs_.clear();
  frees_.clear();
  epilogues_.clear();
  if (mode_ == Mode::Speculative) detail::registry_leave();
  tmsan::on_tx_abort();
  in_tx_ = false;
  // Undo non-transactional bookkeeping registered by this attempt.
  for (auto it = abort_hooks_.rbegin(); it != abort_hooks_.rend(); ++it) {
    (*it)();
  }
  abort_hooks_.clear();
}

void Tx::capture_watch() {
  retry_watch_ = reads_.entries();
  retry_value_watch_ = norec_reads_.entries();
  // The wake-up snapshots must predate every read the retry decision was
  // based on, or a commit landing between the failed predicate check and
  // this capture is lost. start_ is the seq all NOrec reads are valid at;
  // the serial counter was snapshotted at begin().
  retry_norec_snap_ = start_;
}

// ---------------------------------------------------------------------------
// Access paths
// ---------------------------------------------------------------------------

// Shared busy-orec arbitration for the speculative access paths. Returns
// normally to keep spinning, throws ConflictAbort to give up; `spins`
// counts busy samples in the caller's loop.
void Tx::arbitrate_busy_orec(std::uint32_t& spins) {
  if (algo_ == Algo::HTMSim) {
    conflict_abort(obs::AbortCause::ConflictLockBusy);  // hw cannot spin
  }
  if (++spins > detail::runtime().config.lock_spin_limit) {
    conflict_abort(obs::AbortCause::ConflictLockBusy);
  }
  cpu_relax();
}

std::uint64_t Tx::read_word_speculative(const detail::Word* addr) {
  if (algo_ == Algo::NOrec) return read_word_norec(addr);
  if (algo_ == Algo::TwoPL) return twopl_read(addr);
  return read_word_orec(addr);
}

// Out of line so that the dispatch above stays a frameless jump: inlined
// there, this path's register saves would run before the NOrec and 2PL
// branches too (measured: NOrec reads about 0.7 ns slower each).
[[gnu::noinline]] std::uint64_t Tx::read_word_orec(const detail::Word* addr) {
  std::uint64_t buffered;
  if (algo_ == Algo::TL2 && writes_.lookup(addr, &buffered)) {
    return buffered;
  }
  Orec& o = orec_for(addr);
  std::uint32_t spins = 0;
  for (;;) {
    // pairs-with: the last owner's release store of the orec
    // (LockLog::release_all at commit, restore_all/restore_from at
    // rollback): an unlocked word makes that owner's writeback visible.
    const OrecWord s1 = o.load(std::memory_order_acquire);
    if (orec_locked(s1)) {
      if (orec_locked_by(s1, tid_)) {
        // Eager/HTMSim own the line: the in-place value is ours (the
        // write-lock path extended the snapshot past the line's version).
        return addr->load(std::memory_order_relaxed);
      }
      arbitrate_busy_orec(spins);
      continue;
    }
    if (orec_version(s1) > start_) {
      if (!extend()) conflict_abort(obs::AbortCause::ConflictValidation);
      continue;  // resample under the extended snapshot
    }
    // pairs-with: the owner's release store of the orec that s1 acquired,
    // which published the value; acquire also keeps the orec re-check
    // below after this load (the per-orec seqlock read).
    const std::uint64_t v = addr->load(std::memory_order_acquire);
    // pairs-with: a rival's acq_rel lock CAS in lock_orec_for_write() and
    // its release store at commit: a changed word means the value may be
    // torn.
    if (o.load(std::memory_order_acquire) != s1) continue;
    reads_.push(&o, s1);
    if (algo_ == Algo::HTMSim) check_htm_budget();
    tmsan::on_tx_read(addr, v);
    return v;
  }
}

void Tx::write_word_speculative(detail::Word* addr, std::uint64_t value) {
  if (algo_ == Algo::TL2 || algo_ == Algo::NOrec) {
    writes_.insert(addr, value);
    tmsan::on_tx_write(addr, value);
    return;
  }
  if (algo_ == Algo::TwoPL) {
    twopl_write(addr, value);
    return;
  }
  // Eager / HTMSim: encounter-time lock, log old value, write in place.
  Orec& o = orec_for(addr);
  lock_orec_for_write(o);
  undo_.push(addr, addr->load(std::memory_order_relaxed));
  addr->store(value, std::memory_order_relaxed);
  tmsan::on_tx_write(addr, value);
}

void Tx::lock_orec_for_write(Orec& o) {
  std::uint32_t spins = 0;
  for (;;) {
    // pairs-with: the last owner's release store of the orec (see
    // read_word_speculative()).
    OrecWord s = o.load(std::memory_order_acquire);
    if (orec_locked(s)) {
      if (orec_locked_by(s, tid_)) return;  // already ours
      arbitrate_busy_orec(spins);
      continue;
    }
    if (orec_version(s) > start_) {
      // Owning a line makes all of its words readable in place, so the
      // snapshot must cover the line's current version (TinySTM rule).
      if (!extend()) conflict_abort(obs::AbortCause::ConflictValidation);
      continue;
    }
    // pairs-with: the last owner's release store of the orec (acquire
    // half), and readers' acquire loads of it, which then see the line
    // locked before any in-place write (release half).
    if (o.compare_exchange_weak(s, make_orec_locked(tid_),
                                std::memory_order_acq_rel)) {
      ADTM_TSAN_ACQUIRE(&o);
      locks_.push(&o, s);
      if (algo_ == Algo::HTMSim) check_htm_budget();
      return;
    }
  }
}

bool Tx::extend() {
  const std::uint64_t now = clock_now();
  for (const auto& e : reads_.entries()) {
    // pairs-with: committers' release store of the orec
    // (LockLog::release_all) and the lock CAS in lock_orec_for_write().
    const OrecWord cur = e.orec->load(std::memory_order_acquire);
    if (cur == e.seen) continue;
    OrecWord prev;
    if (orec_locked_by(cur, tid_) && locks_.prev_of(e.orec, &prev) &&
        prev == e.seen) {
      continue;
    }
    return false;
  }
  start_ = now;
  return true;
}

void Tx::validate_reads() {
  for (const auto& e : reads_.entries()) {
    // pairs-with: committers' release store of the orec
    // (LockLog::release_all) and the lock CAS in lock_orec_for_write().
    const OrecWord cur = e.orec->load(std::memory_order_acquire);
    if (cur == e.seen) continue;
    OrecWord prev;
    if (orec_locked_by(cur, tid_) && locks_.prev_of(e.orec, &prev) &&
        prev == e.seen) {
      continue;
    }
    throw ConflictAbort{obs::AbortCause::ConflictValidation};
  }
}

void Tx::check_htm_budget() {
  const Config& cfg = detail::runtime().config;
  if (reads_.size() + locks_.size() > cfg.htm_capacity) {
    throw CapacityAbort{};
  }
}

void Tx::conflict_abort(obs::AbortCause cause) { throw ConflictAbort{cause}; }

// ---------------------------------------------------------------------------
// Services
// ---------------------------------------------------------------------------

Tx::NestedCheckpoint Tx::nested_checkpoint() const {
  return NestedCheckpoint{
      reads_.size(),         norec_reads_.size(),
      writes_.size(),        writes_.overwrite_count(),
      undo_.size(),          locks_.size(),
      allocs_.size(),        frees_.size(),
      epilogues_.size(),     abort_hooks_.size(),
  };
}

void Tx::nested_abort(const NestedCheckpoint& cp) noexcept {
  tmsan::on_nested_abort();
  // Order matters, mirroring full rollback: undo in-place values first,
  // then release the orecs acquired by the nested scope.
  undo_.rollback_from(cp.undo);
  locks_.restore_from(cp.locks);
  // Deliberately NOT truncated: reads_/norec_reads_. Values observed in
  // the aborted scope can leak into the parent's control flow (a caught
  // exception, a captured local), so they must stay validated until the
  // whole transaction commits. The only cost is possible false conflicts.
  writes_.revert_to(cp.write_entries, cp.write_overwrites);
  for (std::size_t i = allocs_.size(); i > cp.allocs; --i) {
    std::free(allocs_[i - 1]);
  }
  allocs_.resize(cp.allocs);
  frees_.resize(cp.frees);
  epilogues_.resize(cp.epilogues);
  // Compensate non-transactional bookkeeping done by the nested scope
  // (e.g. TxLock locker accounting), newest first.
  for (std::size_t i = abort_hooks_.size(); i > cp.abort_hooks; --i) {
    abort_hooks_[i - 1]();
  }
  abort_hooks_.resize(cp.abort_hooks);
}

void Tx::on_commit(std::function<void()> fn) {
  ADTM_INVARIANT(in_tx_, "on_commit outside a transaction");
  epilogues_.push_back(std::move(fn));
}

void Tx::on_abort(std::function<void()> fn) {
  ADTM_INVARIANT(in_tx_, "on_abort outside a transaction");
  abort_hooks_.push_back(std::move(fn));
}

void* Tx::alloc(std::size_t bytes) {
  ADTM_INVARIANT(in_tx_, "tx alloc outside a transaction");
  void* p = std::malloc(bytes);
  if (p == nullptr) throw std::bad_alloc{};
  allocs_.push_back(p);
  // The allocator may recycle an address whose words carry tmsan state
  // from a freed object; that state must not constrain this one.
  tmsan::on_tx_alloc(p, bytes);
  return p;
}

void Tx::free(void* ptr) {
  ADTM_INVARIANT(in_tx_, "tx free outside a transaction");
  if (ptr != nullptr) frees_.push_back(ptr);
}

}  // namespace adtm::stm
