// Transaction descriptor and word-level speculative access API.
//
// Users do not construct Tx objects: stm::atomic(body) passes one to the
// body. The descriptor is thread-local and reused across attempts.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/panic.hpp"
#include "obs/trace.hpp"
#include "stm/backend.hpp"
#include "stm/logs.hpp"
#include "tmsan/tmsan.hpp"

namespace adtm::stm {

namespace detail {
struct Driver;
class LockWait;
}

class Tx {
 public:
  Tx(const Tx&) = delete;
  Tx& operator=(const Tx&) = delete;

  // --- word access (used by tvar<T> and tbytes; may be used directly) ---
  //
  // The direct modes (serial-irrevocable, CGL) run uninstrumented: the
  // barrier is the mode test, one relaxed access and the tmsan gate,
  // inlined into the caller. Every speculative access takes the one
  // out-of-line entry, which dispatches on the algorithm.

  // Transactionally read one 64-bit word.
  std::uint64_t read_word(const detail::Word* addr) {
    ADTM_INVARIANT(in_tx_, "read_word outside a transaction");
    if (mode_ == Mode::Speculative) return read_word_speculative(addr);
    const std::uint64_t v = addr->load(std::memory_order_relaxed);
    tmsan::on_tx_read(addr, v);
    return v;
  }

  // Transactionally write one 64-bit word.
  void write_word(detail::Word* addr, std::uint64_t value) {
    ADTM_INVARIANT(in_tx_, "write_word outside a transaction");
    if (mode_ == Mode::Speculative) {
      write_word_speculative(addr, value);
      return;
    }
    wrote_direct_ = true;
    addr->store(value, std::memory_order_relaxed);
    tmsan::on_tx_write(addr, value);
  }

  // --- transaction-lifetime services ---

  // Register fn to run after this transaction commits: after quiescence,
  // outside any transaction, in registration order. Discarded on abort.
  // This is the hook the atomic-deferral layer builds on (the paper's
  // deferred_ops list in Listing 1); transactional frees are processed
  // after all epilogues, matching the listing's TxEnd.
  void on_commit(std::function<void()> fn);

  // Transactional allocation: freed automatically if the transaction
  // aborts.
  void* alloc(std::size_t bytes);

  // Transactional free: the memory is released only after the transaction
  // commits, quiesces, and runs its commit epilogues.
  void free(void* ptr);

  // Register fn to run if this execution of the transaction aborts (after
  // speculative state is rolled back). Used to undo non-transactional
  // side-effect bookkeeping (e.g. TxLock locker accounting). Hooks must
  // not throw. Discarded on commit; re-registered naturally when the body
  // re-executes.
  void on_abort(std::function<void()> fn);

  // True while executing in a direct mode (serial-irrevocable or CGL)
  // where accesses are uninstrumented and the transaction cannot abort.
  bool irrevocable() const noexcept { return mode_ != Mode::Speculative; }

  // Attempt number of the current execution (1 on the first try).
  std::uint32_t attempt() const noexcept { return attempt_; }

 private:
  friend struct detail::Driver;
  friend class detail::LockWait;  // marks the read logs at a TxLock call
  Tx() = default;

  enum class Mode : std::uint8_t { Speculative, Serial, CGL };

  // Per-attempt state.
  Mode mode_ = Mode::Speculative;
  Algo algo_ = Algo::TL2;  // the dispatch key, fixed for the transaction
  std::uint64_t start_ = 0;  // snapshot timestamp
  // Timestamp a writer commit published at; 0 for a read-only or
  // direct-mode commit. The driver quiesces against it.
  std::uint64_t commit_ts_ = 0;
  std::uint32_t attempt_ = 0;
  std::uint32_t tid_ = 0;  // cached small thread id
  bool in_tx_ = false;
  bool wrote_direct_ = false;  // direct-mode write happened (retry illegal)

  detail::ReadSet reads_;
  detail::WriteSet writes_;
  detail::UndoLog undo_;
  detail::LockLog locks_;
  detail::ValueReadSet norec_reads_;  // NOrec only

  // Survive commit; discarded on abort.
  std::vector<std::function<void()>> epilogues_;
  std::vector<void*> allocs_;
  std::vector<void*> frees_;

  // Run on abort of the current attempt; discarded on commit.
  std::vector<std::function<void()>> abort_hooks_;

  // Read-set snapshot + serial-commit counter used by retry() waiting.
  std::vector<detail::ReadEntry> retry_watch_;
  std::vector<detail::ValueReadEntry> retry_value_watch_;  // NOrec
  std::uint64_t retry_norec_snap_ = 0;                     // NOrec
  std::uint64_t retry_serial_snap_ = 0;
  // Thread-exit watch: a waiter parked on state owned by another thread
  // wakes when any thread exits, so orphaned-owner checks re-run promptly.
  std::uint64_t retry_exit_snap_ = 0;
  // 2PL only: the reader-indicator slots this attempt holds (twopl.cpp).
  std::vector<std::uint16_t> twopl_held_;

  // --- algorithm steps (tx.cpp) ---
  void begin(Algo algo, Mode mode, std::uint32_t attempt);
  void commit();                  // may throw ConflictAbort
  void rollback() noexcept;       // undo speculation, release locks, leave
  void capture_watch();           // snapshot read set for retry waiting

  bool extend();                  // timestamp extension; false = invalid
  [[noreturn]] void conflict_abort(obs::AbortCause cause);
  void arbitrate_busy_orec(std::uint32_t& spins);
  void lock_orec_for_write(Orec& o);
  void check_htm_budget();
  // The speculative barriers: one out-of-line entry each, dispatching on
  // algo_. The read entry jumps to its path; the orec path (TL2, Eager,
  // HTMSim) is read_word_orec.
  std::uint64_t read_word_speculative(const detail::Word* addr);
  std::uint64_t read_word_orec(const detail::Word* addr);
  void write_word_speculative(detail::Word* addr, std::uint64_t value);
  void validate_reads();  // throws ConflictAbort on failure

  // NOrec paths.
  std::uint64_t read_word_norec(const detail::Word* addr);
  std::uint64_t norec_validate();  // throws ConflictAbort; returns snapshot
  void commit_norec();

  // 2PL paths (twopl.cpp).
  void twopl_begin();
  std::uint64_t twopl_read(const detail::Word* addr);
  void twopl_write(detail::Word* addr, std::uint64_t value);
  void twopl_commit();
  void twopl_rollback() noexcept;
  void twopl_lock_orec(Orec& o);
  void twopl_drain_readers(std::uint16_t slot);

  // --- closed nesting (paper §8 future work) --------------------------
  // A checkpoint of every per-transaction log; nested_abort rolls the
  // transaction back to it (partial rollback) without disturbing the
  // enclosing work.
  struct NestedCheckpoint {
    std::size_t reads;
    std::size_t norec_reads;
    std::size_t write_entries;
    std::size_t write_overwrites;
    std::size_t undo;
    std::size_t locks;
    std::size_t allocs;
    std::size_t frees;
    std::size_t epilogues;
    std::size_t abort_hooks;
  };
  NestedCheckpoint nested_checkpoint() const;
  void nested_abort(const NestedCheckpoint& cp) noexcept;
};

}  // namespace adtm::stm
