// Write-ahead log with group commit via atomic deferral.
//
// Generalizes the paper's §5.2 durable-output pattern (Listing 4) into a
// production-shaped facility: transactions append records and obtain an
// LSN; durability (write + fsync) happens in a deferred operation after
// commit, and the log's durable horizon is a transactional variable, so
// any transaction can order itself after a record's persistence with
// plain retry-based waiting:
//
//   const wal::Lsn lsn = log.append(tx, payload);   // inside a tx
//   ...
//   stm::atomic([&](stm::Tx& tx) {
//     log.wait_durable(tx, lsn);      // §5.2's flag pattern, generalized
//     ...act on the fact the record is on disk...
//   });
//
// Group commit: concurrent appends stage their payloads post-commit; one
// thread's deferred operation drains the whole staged prefix with a
// single write+fsync (combining), so N concurrent appends cost far fewer
// than N fsyncs. Every record carries a CRC-32 and length header;
// recovery scans the log, verifies checksums, and stops cleanly at a torn
// or corrupt tail.
//
// Failure model (see DESIGN.md "Failure model of deferred operations"):
// the group-commit write+fsync runs under a FailurePolicy — transient
// errors (EINTR, EAGAIN, ENOSPC, EBUSY) are retried with exponential
// backoff up to a bound, resuming mid-buffer so no byte is written twice.
// A permanent error (or an exhausted retry budget) poisons the log: the
// failed() terminal state is transactional, so blocked wait_durable
// subscribers wake and raise instead of hanging, and every subsequent
// append/wait_durable/flush raises std::runtime_error with the original
// failure reason.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "defer/atomic_defer.hpp"
#include "defer/failure_policy.hpp"
#include "io/posix_file.hpp"
#include "stm/tvar.hpp"

namespace adtm::wal {

using Lsn = std::uint64_t;  // 1-based; 0 means "nothing"

class WriteAheadLog {
 public:
  // Opens (creating if needed) and appends to `path`.
  explicit WriteAheadLog(std::string path);

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Transactionally reserve the next LSN for `payload` and schedule its
  // durable write as a deferred operation. The record is on disk no
  // earlier than the transaction's commit and no later than any
  // wait_durable(lsn) completion. Raises if the log is poisoned.
  Lsn append(stm::Tx& tx, std::string payload);

  // Convenience: one-record transaction.
  Lsn append(std::string payload);

  // True once every record with LSN <= lsn is on disk (fsync'd).
  bool is_durable(stm::Tx& tx, Lsn lsn) const;

  // Block (transactional retry) until is_durable(lsn). Raises — instead
  // of blocking forever — if the log is (or becomes) poisoned.
  void wait_durable(stm::Tx& tx, Lsn lsn) const;

  // Non-transactional convenience: wait for all appends issued so far.
  void flush();

  Lsn durable_lsn_direct() const { return durable_lsn_.load_direct(); }
  Lsn next_lsn_direct() const { return next_lsn_.load_direct() - 1; }

  // Number of fsync() calls issued (group-commit effectiveness metric).
  std::uint64_t fsync_count() const noexcept {
    return fsyncs_.load(std::memory_order_relaxed);
  }

  // --- failure handling ------------------------------------------------

  // Terminal state: true once a group-commit write/fsync failed
  // permanently. No further record can become durable; append, flush and
  // wait_durable raise. Recovery path: reopen a fresh WriteAheadLog on
  // the same file (the constructor truncates the torn tail).
  bool failed() const noexcept { return failed_.load_direct(); }

  // Human-readable reason for the poisoning ("" while healthy).
  std::string failure_reason() const;

  // Replace the retry policy for the group-commit write+fsync path. The
  // default retries transient errors 8 times with exponential backoff.
  // The policy's escalate handler is not used here — escalation always
  // poisons the log (an escaped group-commit failure cannot be isolated
  // to one record).
  void set_failure_policy(FailurePolicy policy);

  // --- recovery --------------------------------------------------------

  struct RecoveryResult {
    std::vector<std::string> records;  // valid prefix, in LSN order
    std::uint64_t valid_bytes = 0;     // offset of the first bad byte
    bool clean = true;                 // false if a torn/corrupt tail was cut
  };

  // Scan a log file, verify record checksums, and return the valid
  // prefix. Never throws on torn/corrupt tails — that is the normal
  // crash case; throws std::system_error only on I/O failure.
  static RecoveryResult recover(const std::string& path);

  // Recover and truncate the file to the valid prefix. The truncation is
  // made durable before returning (file fsync + containing-directory
  // fsync): without that barrier the cut itself can be lost on a second
  // crash, and a resurrected garbage tail under newly appended records
  // severs them from the valid prefix (found by tools/crashmat; see
  // DESIGN.md "Crash-recovery contract").
  static RecoveryResult recover_and_truncate(const std::string& path);

  // Harness-only: restore the pre-fix behavior of recover_and_truncate
  // (no durability barrier after the truncate) so the crashmat dirsync
  // regression demo can show the bug being caught. Never set in
  // production code.
  static void testing_skip_truncate_sync(bool skip) noexcept;

 private:
  void stage_and_flush(Lsn lsn, std::string payload);

  // Drain the contiguous staged prefix with one write+fsync per batch.
  // Caller must hold flush_mutex_.
  void stage_and_flush_locked_drain();

  // Enter the terminal failure state and wake retry-blocked subscribers.
  void poison(const std::string& reason) noexcept;

  [[noreturn]] void throw_failed() const;

  std::string path_;
  io::PosixFile file_;

  stm::tvar<Lsn> next_lsn_{1};
  stm::tvar<Lsn> durable_lsn_{0};

  // Transactional so waiters blocked in retry wake when the log poisons.
  stm::tvar<bool> failed_{false};
  mutable std::mutex error_mutex_;
  std::string failure_reason_;  // guarded by error_mutex_

  // Post-commit staging area: records waiting for the group flush.
  // Ordered by LSN; the flusher writes the contiguous prefix.
  std::mutex staging_mutex_;
  std::map<Lsn, std::string> staged_;
  Lsn next_to_write_ = 1;  // guarded by flush_mutex_
  std::mutex flush_mutex_;
  FailurePolicy policy_{.max_retries = 8,
                        .backoff_min_spins = 64,
                        .backoff_max_spins = 64 * 1024,
                        .retryable = nullptr,
                        .escalate = nullptr};  // guarded by flush_mutex_

  std::atomic<std::uint64_t> fsyncs_{0};
};

}  // namespace adtm::wal
