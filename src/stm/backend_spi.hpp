// Service-provider interface for extension backends (stm/backends/*).
//
// BackendOps entry points are free functions; rather than befriending
// every backend translation unit, Tx befriends this single accessor
// struct. It exposes exactly the per-transaction state an out-of-core
// algorithm needs: the shared logs (so retry watching, undo rollback and
// lock release reuse the core machinery), identity/priority, and the
// abort/arbitration helpers. Everything here is internal — extension
// backends live in this repository; the header is not part of the public
// API surface.
#pragma once

#include "stm/backend.hpp"
#include "stm/logs.hpp"
#include "stm/tx.hpp"

namespace adtm::stm {

struct BackendSpi {
  // --- identity / per-attempt state ---
  static std::uint32_t tid(const Tx& tx) noexcept { return tx.tid_; }
  static std::uint64_t start(const Tx& tx) noexcept { return tx.start_; }
  static bool priority(const Tx& tx) noexcept { return tx.priority_; }
  static std::uint32_t attempt(const Tx& tx) noexcept { return tx.attempt_; }
  static const Backend* backend(const Tx& tx) noexcept { return tx.backend_; }

  // --- shared per-transaction logs ---
  static detail::ReadSet& reads(Tx& tx) noexcept { return tx.reads_; }
  static detail::WriteSet& writes(Tx& tx) noexcept { return tx.writes_; }
  static detail::UndoLog& undo(Tx& tx) noexcept { return tx.undo_; }
  static detail::LockLog& locks(Tx& tx) noexcept { return tx.locks_; }

  // --- control flow ---
  [[noreturn]] static void conflict_abort(Tx& tx, obs::AbortCause cause) {
    tx.conflict_abort(cause);
  }

  // Shared busy-orec arbitration (spin budget, priority outwait, karma
  // yield); throws ConflictAbort to give up. See Tx::arbitrate_busy_orec.
  static void arbitrate_busy_orec(Tx& tx, OrecWord s, std::uint32_t& spins,
                                  std::uint64_t& patience_deadline,
                                  bool& outwaited) {
    tx.arbitrate_busy_orec(s, spins, patience_deadline, outwaited);
  }

  // Mark the transaction committed at `commit_ts`, the timestamp a writer
  // commit published at (0 when read-only); the driver quiesces against
  // it. BackendOps::commit must call this last, after releasing locks and
  // leaving the registry.
  static void finish_commit(Tx& tx, std::uint64_t commit_ts) noexcept {
    tx.commit_ts_ = commit_ts;
    tx.in_tx_ = false;
  }
};

}  // namespace adtm::stm
