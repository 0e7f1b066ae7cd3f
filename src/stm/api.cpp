#include "stm/api.hpp"

#include <cstdlib>
#include <exception>
#include <stdexcept>

#include "common/backoff.hpp"
#include "common/panic.hpp"
#include "common/runtime_config.hpp"
#include "common/stats.hpp"
#include "common/timing.hpp"
#include "liveness/activity.hpp"
#include "liveness/contention.hpp"
#include "liveness/wait_graph.hpp"
#include "obs/trace.hpp"
#include "stm/backend.hpp"
#include "stm/control.hpp"
#include "stm/orec.hpp"
#include "stm/registry.hpp"
#include "tmsan/tmsan.hpp"

namespace adtm::stm {

namespace detail {

Orec g_orecs[kOrecCount];
CacheAligned<std::atomic<std::uint64_t>> g_clock{1};

RuntimeState& runtime() noexcept {
  static RuntimeState state;
  // Wake CGL retry waiters whenever a thread exits: an owner that dies
  // while a waiter is parked would otherwise only be noticed at a deadline.
  // The empty critical section is the classic lost-wakeup fence — the
  // waiter re-checks its predicate under cgl_mutex, so notifying after
  // passing through the mutex guarantees it observes the exit.
  static const bool exit_hook = [] {
    register_thread_exit_hook([](std::uint32_t) {
      RuntimeState& rt = runtime();
      { std::lock_guard<std::mutex> lk(rt.cgl_mutex); }
      rt.cgl_cv.notify_all();
    });
    return true;
  }();
  (void)exit_hook;
  return state;
}

// All privileged access to Tx internals funnels through this friend.
struct Driver {
  static Tx& tls() noexcept {
    thread_local Tx tx;
    return tx;
  }

  static bool active(const Tx& tx) noexcept { return tx.in_tx_; }

  // Obs label index of the backend this transaction is running.
  static std::uint8_t obs_idx(const Tx& tx) noexcept {
    return static_cast<std::uint8_t>(tx.algo_);
  }

  static Tx::NestedCheckpoint nested_checkpoint(const Tx& tx) {
    return tx.nested_checkpoint();
  }
  static void nested_abort(Tx& tx, const Tx::NestedCheckpoint& cp) noexcept {
    tx.nested_abort(cp);
  }

  // Run commit epilogues (deferred operations) and then process deferred
  // frees — the tail of the paper's TxEnd (Listing 1). The lists are moved
  // out first so epilogues may start new transactions.
  static void run_epilogues(Tx& tx) {
    auto epilogues = std::move(tx.epilogues_);
    tx.epilogues_.clear();
    auto frees = std::move(tx.frees_);
    tx.frees_.clear();
    tx.allocs_.clear();  // committed: ownership passed to the program
    tx.abort_hooks_.clear();  // committed: abort bookkeeping is moot
    // Every epilogue runs even if an earlier one throws: a later epilogue
    // may hold TxLocks (atomic_defer) that must be released, or its
    // subscribers block forever. The first exception wins; frees are
    // processed regardless.
    std::exception_ptr first_error;
    for (auto& fn : epilogues) {
      // Visible to the watchdog: a deferred op that stalls past the budget
      // is reported with this state and its start time. A reap request
      // targets one op, so starting the next op discards any stale flag.
      liveness::set_state(liveness::ThreadState::DeferredOp, now_ns());
      liveness::clear_reap();
      const bool traced = obs::enabled();
      const std::uint64_t t_epi = traced ? now_ns() : 0;
      if (traced) obs::emit(obs::EventType::EpilogueBegin);
      try {
        fn();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
      if (traced) {
        obs::emit(obs::EventType::EpilogueEnd, obs::AbortCause::None,
                  obs::kNoAlgo, now_ns() - t_epi);
      }
    }
    for (void* p : frees) std::free(p);
    if (first_error) std::rethrow_exception(first_error);
  }

  // True once a parked retry waiter should re-execute: a watched location
  // may have changed, a serial commit happened (those do not touch orecs;
  // the gate check avoids sitting out a long serial section), or a thread
  // exited (state it owned — a TxLock, a condition watched through
  // non-transactional data — may be orphaned; re-run the body so its
  // owner-liveness checks fire). For NOrec any committed change bumps the
  // sequence lock, so watching it covers every value in the read set
  // without touching user memory (which might be reclaimed while we
  // sleep). Spurious wake-ups just re-run the body (or, for a TxLock
  // waiter parked in place, re-read the lock) and re-wait.
  static bool retry_wake_ready(const Tx& tx) {
    for (const auto& e : tx.retry_watch_) {
      if (e.orec->load(std::memory_order_acquire) != e.seen) return true;
    }
    if (!tx.retry_value_watch_.empty() &&
        runtime().norec_seq.load(std::memory_order_acquire) !=
            tx.retry_norec_snap_) {
      return true;
    }
    if (runtime().serial_commits.load(std::memory_order_acquire) !=
        tx.retry_serial_snap_) {
      return true;
    }
    if (g_serial_gate.busy()) return true;
    return thread_exit_count() != tx.retry_exit_snap_;
  }

  // Block until a location in the retry watch set may have changed, a
  // thread exits (owner-death checks must re-run), or — with a nonzero
  // deadline — the deadline passes, which raises RetryTimeout. A parked
  // waiter's deadlock poll may raise DeadlockError.
  static void wait_for_change(Tx& tx, std::uint64_t deadline_ns) {
    if (tx.retry_watch_.empty() && tx.retry_value_watch_.empty()) {
      throw std::logic_error(
          "stm::retry(): transaction has an empty read set; "
          "nothing can wake it");
    }
    // The transaction is rolled back here, or parked in place only when
    // it acquired no lock, so no in-attempt lock acquisition survives: a
    // parked waiter pins only committed holds, all of which are counted —
    // the transactional acquire path cannot create an untracked
    // hold-and-wait edge (the cycle-freedom argument for pure
    // transactional locking).
    ADTM_INVARIANT(liveness::pinned_holds() == locker_depth(),
                   "parked with untracked cross-transaction lock holds");
    liveness::set_state(liveness::ThreadState::RetryWait, now_ns());
    const bool traced = obs::enabled();
    const std::uint64_t t_park = traced ? now_ns() : 0;
    if (traced) {
      obs::emit(obs::EventType::RetryPark, obs::AbortCause::None,
                obs_idx(tx));
    }
    // Poll for the first spin window: a lock hand-off or a short writer
    // usually wakes the waiter within microseconds. Then back off.
    SpinWindow spin;
    Backoff bo;
    for (;;) {
      if (retry_wake_ready(tx)) {
        if (traced) {
          obs::emit(obs::EventType::RetryWake, obs::AbortCause::None,
                    obs_idx(tx), now_ns() - t_park, 0);
        }
        return;
      }
      if (deadline_ns != 0 && now_ns() >= deadline_ns) {
        if (traced) {
          obs::emit(obs::EventType::RetryWake, obs::AbortCause::None,
                    obs_idx(tx), now_ns() - t_park, 1);
        }
        throw RetryTimeout("stm::retry deadline expired");
      }
      // A waiter with a checkable wait edge keeps scanning for wait
      // cycles while parked: the block-site scan can race with other
      // members that published but had not parked yet, and a cycle that
      // forms is stable precisely once everyone is parked — someone's
      // poll then sees it and raises DeadlockError here. Lock edges are
      // checkable only while committed holds are pinned; condvar edges
      // always are (notification duty is committed state).
      if (liveness::wait_edge_checkable()) liveness::deadlock_check();
      if (!spin.pause()) bo.pause();
    }
  }

  // True when a TxLock wait may park this attempt in place (LockWait):
  // nothing the attempt did is visible to other threads, so it can leave
  // the registry and later resume. Eager attempts that wrote own orecs,
  // HTMSim and 2PL (its reader indicators would block writers) abort
  // instead. An attempt that acquired a TxLock (locker_depth() above the
  // committed holds) must abort: that releases the lock, which keeps
  // multi-lock acquisition deadlock-free.
  static bool may_park_in_place(const Tx& tx) {
    if (tx.mode_ != Tx::Mode::Speculative || !runtime().config.retry_wait) {
      return false;
    }
    const bool invisible =
        tx.algo_ == Algo::TL2 || tx.algo_ == Algo::NOrec ||
        (tx.algo_ == Algo::Eager && tx.locks_.empty());
    return invisible && locker_depth() == liveness::pinned_holds();
  }

  // Park a TxLock waiter in place: the same wait as a retry(), but the
  // attempt is not rolled back. It leaves the registry, so writers'
  // quiescence and the serial gate do not wait for it, and resume()s once
  // the wait ends. A wait that ends in RetryTimeout or DeadlockError ends
  // as the abort path's does: the attempt rolls back and the driver
  // raises the error, out of the outermost atomic(), whatever the body
  // catches.
  static void park_in_place(Tx& tx, const LockWait& mark,
                            std::uint64_t deadline_ns) {
    tx.capture_watch();
    registry_leave();
    stats().add(Counter::TxRetry);
    try {
      wait_for_change(tx, deadline_ns);
    } catch (...) {
      throw RetryRequest{deadline_ns, std::current_exception()};
    }
    resume(tx, mark);
  }

  // Re-enter the registry at a fresh snapshot, drop the reads the lock
  // call made (the caller reads the lock again), and re-validate the rest
  // — the deferred-update argument: the attempt is as if it had started
  // now. Throws ConflictAbort when it cannot: a kept read changed, or a
  // serial commit landed (those leave no orec trace).
  static void resume(Tx& tx, const LockWait& mark) {
    RuntimeState& rt = runtime();
    if (liveness::has_wait_edge()) liveness::clear_wait();
    liveness::set_state(liveness::ThreadState::InTx, 0);
    registry_enter(tx.algo_ == Algo::NOrec
                       ? rt.norec_seq.load(std::memory_order_acquire)
                       : clock_now());
    tx.reads_.truncate(mark.reads_);
    tx.norec_reads_.truncate(mark.norec_reads_);
    tmsan::on_tx_resume(mark.san_reads_);
    // As at begin(): an owner exiting after this must wake the next park.
    tx.retry_exit_snap_ = thread_exit_count();
    if (rt.serial_commits.load(std::memory_order_acquire) !=
        tx.retry_serial_snap_) {
      throw ConflictAbort{};
    }
    if (tx.algo_ != Algo::NOrec) {
      if (!tx.extend()) throw ConflictAbort{};
      return;
    }
    // norec_validate reads the kept words in read order, so a changed
    // link fails before the node it led to, which a writer may have freed
    // while this attempt was out of the registry, is read.
    (void)tx.norec_validate();
  }

  // Every way an attempt can end. record() is the one place each is
  // accounted.
  enum class Outcome : std::uint8_t {
    Commit,         // body and commit finished
    CommitAtThrow,  // direct mode: an exception commits at the throw point
    Retry,          // stm::retry(): wait, then re-execute
    Cancel,         // stm::cancel(): roll back, return normally
    Conflict,       // ConflictAbort: back off, then re-execute
    Capacity,       // HTMSim footprint overflow: re-execute
    SerialRestart,  // become_irrevocable(): re-execute serially
    Timeout,        // a bounded retry wait expired: RetryTimeout
    Deadlock,       // a wait cycle: DeadlockError
    Exception,      // an exception rolled a speculative attempt back
  };

  // Account one outcome: the stats counter, the obs event and the
  // contention manager's abort streak. `t_attempt` is the attempt's start
  // when it was traced (0 otherwise); `t_commit` is the start of its
  // commit phase.
  static void record(Outcome out, const Tx& tx,
                     obs::AbortCause cause = obs::AbortCause::None,
                     std::uint64_t t_attempt = 0,
                     std::uint64_t t_commit = 0) {
    switch (out) {
      case Outcome::Commit:
      case Outcome::CommitAtThrow:
        stats().add(Counter::TxCommit);
        if (t_attempt != 0) {
          const std::uint64_t t_end = now_ns();
          obs::emit(obs::EventType::TxCommit, obs::AbortCause::None,
                    obs_idx(tx), t_end - t_attempt,
                    out == Outcome::Commit
                        ? static_cast<std::uint32_t>(t_end - t_commit)
                        : 0);
        }
        liveness::contention().on_commit();
        return;
      case Outcome::Retry:
        stats().add(Counter::TxRetry);
        return;
      case Outcome::Cancel:
        stats().add(Counter::TxAbortExplicit);
        cause = obs::AbortCause::Explicit;
        break;
      case Outcome::Conflict:
        stats().add(Counter::TxAbortConflict);
        liveness::contention().on_conflict_abort();
        break;
      case Outcome::Capacity:
        stats().add(Counter::TxAbortCapacity);
        cause = obs::AbortCause::Capacity;
        break;
      case Outcome::SerialRestart:
        stats().add(Counter::TxIrrevocable);
        cause = obs::AbortCause::SerialRestart;
        break;
      case Outcome::Timeout:
        stats().add(Counter::RetryTimeouts);
        cause = obs::AbortCause::Timeout;
        break;
      case Outcome::Deadlock:
        cause = obs::AbortCause::Deadlock;
        break;
      case Outcome::Exception:
        cause = obs::AbortCause::Exception;
        break;
    }
    obs::emit(obs::EventType::TxAbort, cause, obs_idx(tx), 0, tx.attempt_);
  }

  // Leave the mode once its attempt has committed: a serial commit bumps
  // the counter retry waiters watch and opens the gate; a CGL commit
  // wakes the waiters parked on cgl_cv.
  static void leave(Tx::Mode mode, std::unique_lock<std::mutex>& cgl) {
    RuntimeState& rt = runtime();
    if (mode == Tx::Mode::Serial) {
      rt.serial_commits.fetch_add(1, std::memory_order_acq_rel);
      release_serial_gate();
    } else if (mode == Tx::Mode::CGL) {
      ++rt.cgl_commit_gen;
      cgl.unlock();
      rt.cgl_cv.notify_all();
    }
  }

  // Undo a failed attempt and leave the serial gate. Direct-mode writes
  // went in place and cannot be undone, so retry() or cancel() after one
  // is a program error.
  static void undo(Tx& tx, Tx::Mode mode, Outcome out) {
    const bool wrote = tx.wrote_direct_;
    tx.rollback();
    if (mode == Tx::Mode::Serial) release_serial_gate();
    if (wrote) {
      throw std::logic_error(
          out == Outcome::Retry
              ? "stm::retry() after a write in serial-irrevocable or CGL "
                "mode (direct-mode writes cannot be rolled back)"
              : "stm::cancel() after a write in serial-irrevocable or CGL "
                "mode (direct-mode writes cannot be rolled back)");
    }
  }

  // An exception escaped the body. A speculative attempt rolls back. A
  // direct-mode attempt keeps its effects (GCC `synchronized` semantics):
  // it commits at the throw point, so its deferred operations still run —
  // they must, to release the TxLocks acquired by atomic_defer.
  static void end_at_throw(Tx& tx, Tx::Mode mode,
                           std::unique_lock<std::mutex>& cgl, Outcome out,
                           std::uint64_t t_attempt) {
    if (mode == Tx::Mode::Speculative) {
      tx.rollback();
      record(out, tx);
      return;
    }
    tx.commit();
    leave(mode, cgl);
    record(Outcome::CommitAtThrow, tx, obs::AbortCause::None, t_attempt);
    run_epilogues(tx);
  }

  // Wait until a retried attempt may succeed. Raises RetryTimeout once the
  // deadline passes. A speculative attempt parks on its read set, or backs
  // off when Config::retry_wait is off (the paper's own retry: abort and
  // immediately re-execute, with backoff so we do not starve the thread
  // that must make the condition true). A serial attempt has no read set
  // to watch: it backs off outside the gate. A CGL attempt parks on cgl_cv.
  // Direct-mode waiters are parked waiters too: they keep their state
  // honest for the watchdog and poll for wait cycles (a waiter on a
  // TxCondVar joins cv-only cycles in any mode).
  static void wait_out_retry(Tx& tx, Tx::Mode mode, std::uint64_t deadline_ns,
                             bool retry_wait, Backoff& bo,
                             std::unique_lock<std::mutex>& cgl) {
    const auto expired = [deadline_ns] {
      return deadline_ns != 0 && now_ns() >= deadline_ns;
    };
    if (mode == Tx::Mode::Speculative) {
      if (retry_wait) return wait_for_change(tx, deadline_ns);
      if (expired()) throw RetryTimeout("stm::retry deadline expired");
      bo.pause();
      return;
    }
    if (mode == Tx::Mode::Serial) {
      if (expired()) {
        throw RetryTimeout("stm::retry deadline expired (serial mode)");
      }
      liveness::set_state(liveness::ThreadState::RetryWait, now_ns());
      if (liveness::wait_edge_checkable()) liveness::deadlock_check();
      bo.pause();
      return;
    }
    // Wake on a commit OR on a thread exit (the runtime's exit hook
    // notifies cgl_cv): a CGL waiter parked on state owned by a dead
    // thread re-runs its body's owner-liveness checks promptly instead of
    // only at a caller deadline. The short tick bounds the window of a
    // missed notification and drives the deadlock poll.
    RuntimeState& rt = runtime();
    const std::uint64_t gen = rt.cgl_commit_gen;
    liveness::set_state(liveness::ThreadState::RetryWait, now_ns());
    const auto woken = [&] {
      return rt.cgl_commit_gen != gen ||
             thread_exit_count() != tx.retry_exit_snap_;
    };
    for (;;) {
      if (expired()) throw RetryTimeout("stm::retry deadline expired (CGL)");
      if (rt.cgl_cv.wait_for(cgl, std::chrono::milliseconds(10), woken)) {
        return;
      }
      if (liveness::wait_edge_checkable()) liveness::deadlock_check();
    }
  }

  // Starvation escalation (liveness/contention.hpp): a thread whose
  // cross-transaction abort streak reached the threshold runs serially.
  // Only without holds of its own: the gate refuses a contention
  // escalation while other threads pin holds, and a pinned holder's peers
  // are often exactly those threads; its per-call serialize_after budget
  // still reaches the gate. Returns true (and counts the escalation) when
  // the thread must run serially.
  static bool should_escalate(const Config& cfg) {
    if (locker_depth() != 0 ||
        !liveness::contention().should_escalate(cfg.starvation_threshold)) {
      return false;
    }
    liveness::contention().on_escalation();
    stats().add(Counter::CmEscalations);
    return true;
  }

  // The attempt loop (the paper's TxBegin/TxEnd, Listing 1, plus
  // re-execution). The mode is speculative, serial or CGL; escalating to
  // serial changes it in place. What differs per mode — entry and exit,
  // undoing a failed attempt, waiting out a retry() — is in the helpers
  // above; every outcome is accounted by record(). A `publish_only`
  // transaction commits without quiescence (see run_publish).
  static void run(Tx& tx, FunctionRef<void(Tx&)> body, Algo algo,
                  bool publish_only) {
    RuntimeState& rt = runtime();
    const Config& cfg = rt.config;
    std::unique_lock<std::mutex> cgl(rt.cgl_mutex, std::defer_lock);
    Tx::Mode mode = Tx::Mode::Speculative;
    // Escalated: every later attempt of this transaction tries the serial
    // gate first. Counted once, however often the gate refuses.
    bool escalated = false;
    bool must_serial = false;  // the body cannot commit speculatively
    if (algo == Algo::CGL) {
      mode = Tx::Mode::CGL;
      cgl.lock();  // held across attempts, released at commit
    } else {
      // A thread that lost its conflicts across many *previous*
      // transactions escalates up front instead of losing a few more
      // attempts first.
      escalated = should_escalate(cfg);
    }
    // HTM-like backends exhaust a small hardware-retry budget before
    // falling back to the serial gate; software backends serialize as
    // contention management of last resort (paper §2).
    const bool htm = algo == Algo::HTMSim;
    std::uint32_t attempt = 0;
    Backoff bo;
    for (;;) {
      if (mode != Tx::Mode::CGL) {
        if (!escalated &&
            attempt >= (htm ? cfg.htm_retries : cfg.serialize_after)) {
          escalated = true;
          stats().add(htm ? Counter::TxHtmFallback : Counter::TxIrrevocable);
        }
        mode = Tx::Mode::Speculative;
        if (escalated) {
          switch (acquire_serial_gate(must_serial)) {
            case GateEntry::Acquired:
              mode = Tx::Mode::Serial;
              break;
            case GateEntry::Refused:
              // Contention management does not wait for other threads'
              // cross-transaction holds: back off and run this attempt
              // speculatively.
              bo.pause();
              break;
            case GateEntry::Cycle:
              stats().add(Counter::DeadlocksDetected);
              record(Outcome::Deadlock, tx);
              throw liveness::DeadlockError(
                  "serial gate: this transaction must run serially, and the "
                  "writer at the gate waits for the cross-transaction locks "
                  "this thread holds");
          }
        }
      }
      const bool traced = obs::enabled();
      const std::uint64_t t_attempt = traced ? now_ns() : 0;
      std::uint64_t t_commit = 0;
      tx.begin(algo, mode, ++attempt);
      if (traced) {
        obs::emit(mode == Tx::Mode::Serial ? obs::EventType::SerialEnter
                                           : obs::EventType::TxBegin,
                  obs::AbortCause::None, obs_idx(tx), 0, attempt);
      }
      Outcome out = Outcome::Commit;
      obs::AbortCause cause = obs::AbortCause::None;
      std::uint64_t deadline_ns = 0;
      std::exception_ptr wait_ended;
      try {
        body(tx);
        if (traced) t_commit = now_ns();
        tx.commit();
        // The one quiescence (Listing 1, TxEnd: validate, quiesce, run the
        // deferred operations). A writer waits for every transaction that
        // was active before its commit, so that its deferred operations,
        // its frees and its caller may touch privatized memory
        // non-transactionally (paper §2). A publish-only transaction
        // privatizes nothing: what it publishes is ordered by the orecs it
        // wrote, which every later reader validates against.
        if (publish_only) {
          ADTM_INVARIANT(tx.frees_.empty(),
                         "a publish-only transaction freed memory; its "
                         "frees need the grace period it skips");
        } else if (tx.commit_ts_ != 0 && cfg.quiescence) {
          quiesce_until(tx.commit_ts_);
        }
      } catch (ConflictAbort& ca) {
        out = Outcome::Conflict;
        cause = ca.cause;
      } catch (CapacityAbort&) {
        out = Outcome::Capacity;
      } catch (RetryRequest& rr) {
        out = Outcome::Retry;
        deadline_ns = rr.deadline_ns;
        wait_ended = rr.ended;
        tx.capture_watch();
      } catch (SerialRestart&) {
        out = Outcome::SerialRestart;
      } catch (UserAbort&) {
        out = Outcome::Cancel;
      } catch (liveness::DeadlockError&) {
        end_at_throw(tx, mode, cgl, Outcome::Deadlock, t_attempt);
        throw;
      } catch (...) {
        end_at_throw(tx, mode, cgl, Outcome::Exception, t_attempt);
        throw;
      }
      if (out == Outcome::Commit) {
        leave(mode, cgl);
        record(out, tx, cause, t_attempt, t_commit);
        run_epilogues(tx);
        return;
      }
      undo(tx, mode, out);
      // A TxLock waiter parked in place counted its wait when it parked.
      if (!wait_ended) record(out, tx, cause);
      switch (out) {
        case Outcome::Cancel:
          return;
        case Outcome::Conflict:
          if (!escalated) escalated = should_escalate(cfg);
          if (!escalated) bo.pause();
          break;
        case Outcome::SerialRestart:
          escalated = must_serial = true;
          break;
        case Outcome::Retry:
          try {
            // A TxLock waiter parked in place has already waited.
            if (wait_ended) std::rethrow_exception(wait_ended);
            wait_out_retry(tx, mode, deadline_ns, cfg.retry_wait, bo, cgl);
          } catch (RetryTimeout&) {
            record(Outcome::Timeout, tx);
            throw;
          } catch (liveness::DeadlockError&) {
            record(Outcome::Deadlock, tx);
            throw;
          }
          --attempt;  // waiting for a condition is not contention
          break;
        default:  // Capacity: re-execute at once, serially once over budget
          must_serial = true;
          break;
      }
    }
  }
};

Tx& tls_tx() noexcept { return Driver::tls(); }

LockWait::LockWait(const Tx& tx) noexcept
    : reads_(tx.reads_.size()),
      norec_reads_(tx.norec_reads_.size()),
      san_reads_(tmsan::tx_read_mark()) {}

void LockWait::park(Tx& tx, Deadline deadline) const {
  if (!Driver::may_park_in_place(tx)) retry(tx, deadline);
  Driver::park_in_place(tx, *this, deadline.raw_ns());
}

void run_atomic_nested(FunctionRef<void(Tx&)> body) {
  Tx& tx = Driver::tls();
  if (!Driver::active(tx)) {
    run_atomic(body);
    return;
  }
  if (tx.irrevocable()) {
    // Direct modes cannot partially roll back: flatten (documented).
    body(tx);
    return;
  }
  const auto cp = Driver::nested_checkpoint(tx);
  try {
    body(tx);
  } catch (ConflictAbort&) {
    throw;  // whole-transaction control flow: the driver handles these
  } catch (CapacityAbort&) {
    throw;
  } catch (RetryRequest&) {
    throw;  // condition waits restart the whole transaction
  } catch (SerialRestart&) {
    throw;
  } catch (UserAbort&) {
    // cancel() inside a closed-nested scope aborts just the scope.
    Driver::nested_abort(tx, cp);
    stats().add(Counter::TxAbortExplicit);
  } catch (...) {
    Driver::nested_abort(tx, cp);
    throw;  // the enclosing code may catch and take an alternative path
  }
}

namespace {
// Outermost-transaction scope guard: however atomic() exits (commit,
// cancel, RetryTimeout, DeadlockError, a user exception), the thread is
// marked Idle again, any wait-graph edge published at a block site is
// retracted and any lock wait still timed is dropped, so the watchdog,
// the deadlock detector and the lock stats never see stale state.
struct ActivityScope {
  ~ActivityScope() {
    if (liveness::has_wait_edge()) liveness::clear_wait();
    obs::lock_wait_abandon();
    liveness::set_state(liveness::ThreadState::Idle, 0);  // untimed state
  }
};
}  // namespace

void run_atomic(FunctionRef<void(Tx&)> body) {
  Tx& tx = Driver::tls();
  if (Driver::active(tx)) {
    // Flat nesting: join the enclosing transaction.
    body(tx);
    return;
  }
  ActivityScope scope;
  Driver::run(tx, body, active_backend_or_default()->algo, false);
}

bool run_publish(FunctionRef<void(Tx&)> body) {
  Tx& tx = Driver::tls();
  if (Driver::active(tx)) {
    // Flattened into a user transaction, which quiesces as usual.
    body(tx);
    return false;
  }
  ActivityScope scope;
  Driver::run(tx, body, active_backend_or_default()->algo, true);
  return true;
}

}  // namespace detail

void init(const Config& cfg) {
  ADTM_INVARIANT(!in_transaction(), "stm::init inside a transaction");
  Config c = cfg;
  if (c.htm_capacity < 4) c.htm_capacity = 4;
  if (c.serialize_after == 0) c.serialize_after = 1;
  if (c.htm_retries == 0) c.htm_retries = 1;
  detail::runtime().config = c;
  // Resolve and publish the backend selection (Config::backend name or
  // ADTM_ALGO). Throws std::invalid_argument for an unknown name.
  detail::install_backend(c);
  // ADTM_TRACE=1 turns tracing on at the first init. Never turns it off:
  // an explicit obs::enable() (or configure()) outranks the environment.
  if (runtime_config().trace && !obs::enabled()) obs::enable();
  // Same contract for the sanitizer knobs: the environment arms, an
  // explicit tmsan::disable() (or configure()) outranks it afterwards.
  if (runtime_config().tmsan) {
    tmsan::enable(tmsan::kCheckRace | tmsan::kCheckDeferral);
  }
  if (runtime_config().tmsan_opacity) tmsan::enable(tmsan::kCheckOpacity);
}

const Config& config() noexcept { return detail::runtime().config; }

bool in_transaction() noexcept {
  return detail::Driver::active(detail::Driver::tls());
}

void retry(Tx&, Deadline deadline) {
  // Deadline's raw encoding is the runtime's internal convention: 0 means
  // "no deadline"; Deadline::at() already clamps explicit zeros.
  throw detail::RetryRequest{deadline.raw_ns()};
}

void cancel(Tx&) { throw detail::UserAbort{}; }

void become_irrevocable(Tx& tx) {
  if (tx.irrevocable()) return;
  throw detail::SerialRestart{};
}

}  // namespace adtm::stm
