#include "wal/wal.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "common/backoff.hpp"
#include "common/runtime_config.hpp"
#include "common/timing.hpp"
#include "faultsim/crashpoint.hpp"
#include "obs/trace.hpp"
#include "stm/api.hpp"
#include "wal/crc32.hpp"

namespace adtm::wal {
namespace {

// Crash-torture sites (tools/crashmat enumerates these; see DESIGN.md
// "Crash-recovery contract"). Registered at load so the harness can list
// them without running a workload first.
const faultsim::CrashPointId kCpCommitWrite =
    faultsim::register_crash_point("wal.commit.write", "wal", true);
const faultsim::CrashPointId kCpCommitPreFsync =
    faultsim::register_crash_point("wal.commit.pre_fsync", "wal", false);
const faultsim::CrashPointId kCpCommitPostFsync =
    faultsim::register_crash_point("wal.commit.post_fsync", "wal", false);
const faultsim::CrashPointId kCpOpenPostCreate =
    faultsim::register_crash_point("wal.open.post_create", "wal", false);
const faultsim::CrashPointId kCpRecoverPostTruncate =
    faultsim::register_crash_point("wal.recover.post_truncate", "wal", false);
const faultsim::CrashPointId kCpRecoverPostSync =
    faultsim::register_crash_point("wal.recover.post_sync", "wal", false);

// Pre-fix escape hatch for the crashmat dirsync regression demo: skips the
// truncation durability barrier in recover_and_truncate, restoring the
// bug this harness was built to catch. Never set outside tests/tools.
std::atomic<bool> g_skip_truncate_sync{false};

// On-disk record: u32 payload length (LE), u32 CRC-32 of the payload
// (LE), payload bytes.
constexpr std::size_t kHeaderBytes = 8;
constexpr std::size_t kMaxRecordBytes = std::size_t{1} << 30;

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out.append(b, 4);
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string path) : path_(std::move(path)) {
  // Crash recovery on open: cut any torn tail, then resume numbering
  // after the valid prefix.
  const RecoveryResult recovered = recover_and_truncate(path_);
  file_ = io::PosixFile::open_append(path_);
  // A newly created log is not crash-safe until its directory entry is:
  // without this, the first group commit can fsync data into a file a
  // crash then makes unreachable.
  faultsim::crash_point(kCpOpenPostCreate);
  io::fsync_parent_dir(path_);
  const Lsn base = recovered.records.size();
  next_lsn_.store_direct(base + 1);
  durable_lsn_.store_direct(base);
  next_to_write_ = base + 1;
  const RuntimeConfig& cfg = runtime_config();
  group_window_us_ = cfg.wal_group_window_us;
  if (cfg.breaker_threshold != 0) {
    health::BreakerOptions bo;  // thresholds from runtime_config
    bo.name = "wal:" + path_;
    breaker_ = std::make_unique<health::CircuitBreaker>(std::move(bo));
    policy_.breaker = breaker_.get();
  }
}

Lsn WriteAheadLog::append(stm::Tx& tx, std::string payload) {
  // Fail fast on a poisoned log — and transactionally, so a transaction
  // racing with the poisoning either sees the failure or conflicts.
  if (failed_.get(tx)) throw_failed();
  const Lsn lsn = next_lsn_.get(tx);
  next_lsn_.set(tx, lsn + 1);
  // The paper's "pass nil" deferral: no lock is needed — ordering comes
  // from the LSNs and durability from the staged group flush.
  atomic_defer(tx, [this, lsn, p = std::move(payload)]() mutable {
    stage_and_flush(lsn, std::move(p));
  });
  return lsn;
}

Lsn WriteAheadLog::append(std::string payload) {
  // Each attempt logs its own copy: the body may re-execute.
  return stm::atomic([&](stm::Tx& tx) { return append(tx, payload); });
}

bool WriteAheadLog::is_durable(stm::Tx& tx, Lsn lsn) const {
  return durable_lsn_.get(tx) >= lsn;
}

void WriteAheadLog::wait_durable(stm::Tx& tx, Lsn lsn) const {
  // The failed_ read joins the retry watch set, so poisoning wakes every
  // blocked waiter and this raises instead of hanging forever.
  if (failed_.get(tx)) throw_failed();
  if (!is_durable(tx, lsn)) stm::retry(tx);
}

void WriteAheadLog::flush() {
  // Committed horizon (a transaction: a speculative in-place reservation
  // must not inflate the target).
  const Lsn target =
      stm::atomic([&](stm::Tx& tx) { return next_lsn_.get(tx); }) - 1;
  Backoff bo;
  while (durable_lsn_.load_direct() < target) {
    if (failed_.load_direct()) throw_failed();
    if (flush_mutex_.try_lock()) {
      // Drain whatever is staged (the helper expects the lock held).
      try {
        stage_and_flush_locked_drain();
      } catch (...) {
        flush_mutex_.unlock();
        throw;
      }
      flush_mutex_.unlock();
    }
    if (durable_lsn_.load_direct() >= target) return;
    if (failed_.load_direct()) throw_failed();
    bo.pause();  // an epilogue on another thread is about to stage/flush
  }
}

std::string WriteAheadLog::failure_reason() const {
  std::lock_guard<std::mutex> lk(error_mutex_);
  return failure_reason_;
}

void WriteAheadLog::set_failure_policy(FailurePolicy policy) {
  std::lock_guard<std::mutex> lk(flush_mutex_);
  policy_ = std::move(policy);
  // Keep the per-log breaker composed unless the caller supplied their
  // own; replacing the retry budget should not silently detach overload
  // protection.
  if (policy_.breaker == nullptr) policy_.breaker = breaker_.get();
}

void WriteAheadLog::poison(const std::string& reason) noexcept {
  try {
    {
      std::lock_guard<std::mutex> lk(error_mutex_);
      if (failure_reason_.empty()) failure_reason_ = reason;
    }
    // Transactional store: retry-blocked waiters watch failed_ and wake.
    stm::atomic([&](stm::Tx& tx) { failed_.set(tx, true); });
  } catch (...) {
    // Last resort — waiters may then only observe failure via the direct
    // checks in flush()/stage_and_flush(). Raw store is deliberate: the
    // transactional store above already failed.
    failed_.store_direct(true);  // txsafety:allow(raw-tvar-access)
  }
}

void WriteAheadLog::throw_failed() const {
  std::string reason;
  {
    // Failure path only: the transaction dies by the throw below, so a
    // short uncontended mutex hold cannot wedge a commit.
    std::lock_guard<std::mutex> lk(error_mutex_);  // txsafety:allow(irrevocable-call-in-tx)
    reason = failure_reason_;
  }
  throw std::runtime_error("WriteAheadLog: log poisoned by I/O failure: " +
                           (reason.empty() ? "unknown" : reason));
}

void WriteAheadLog::stage_and_flush(Lsn lsn, std::string payload) {
  {
    std::lock_guard<std::mutex> lk(staging_mutex_);
    staged_.emplace(lsn, std::move(payload));
  }
  // Group commit: whoever holds the flush lock drains the whole staged
  // prefix with one write+fsync. Everyone leaves only once their own
  // record is durable — that is the atomic-deferral contract: the
  // deferred operation *is* the durable write. On a poisoned log the
  // contract is unmeetable: raise within the bounded-retry budget
  // rather than spin forever.
  Backoff bo;
  for (;;) {
    if (durable_lsn_.load_direct() >= lsn) return;
    if (failed_.load_direct()) throw_failed();
    if (flush_mutex_.try_lock()) {
      try {
        stage_and_flush_locked_drain();
      } catch (...) {
        flush_mutex_.unlock();
        throw;
      }
      flush_mutex_.unlock();
    } else {
      bo.pause();  // another thread is flushing; it may cover us
    }
  }
}

void WriteAheadLog::gather_window_locked() {
  if (group_window_us_ == 0) return;
  // Reserved-but-unstaged records are LSNs already handed out whose
  // deferred stage has not arrived yet (their committers are between
  // commit and epilogue). Waiting a beat folds them into this fsync
  // instead of the next one. The wait scales with backlog depth — an
  // idle log never waits, a convoying one amortizes harder — and is
  // capped by the window knob either way. next_lsn_'s direct load may
  // see a speculative reservation under in-place algorithms; for a
  // gather heuristic an over-estimate only means waiting out the cap.
  const Lsn durable = durable_lsn_.load_direct();
  const Lsn reserved = next_lsn_.load_direct() - 1;
  if (reserved <= durable) return;
  const std::uint64_t backlog = reserved - durable;
  constexpr std::uint64_t kPerRecordUs = 2;
  const std::uint64_t window_ns =
      std::min(group_window_us_, backlog * kPerRecordUs) * 1000;
  const std::uint64_t deadline = now_ns() + window_ns;
  window_gathers_.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(staging_mutex_);
      // Every outstanding record is staged: flush now, nothing to gain.
      if (next_to_write_ + staged_.size() > reserved) return;
    }
    if (failed_.load_direct()) return;
    if (now_ns() >= deadline) return;
    std::this_thread::yield();
  }
}

void WriteAheadLog::stage_and_flush_locked_drain() {
  gather_window_locked();
  for (;;) {
    if (failed_.load_direct()) return;  // poisoned: callers raise
    // Collect the contiguous LSN prefix. A gap means an earlier
    // committer has not staged yet; its own deferred op will flush it
    // (and anything after) shortly.
    std::string buffer;
    Lsn last = 0;
    std::uint64_t records = 0;
    {
      std::lock_guard<std::mutex> lk(staging_mutex_);
      for (;;) {
        const auto it = staged_.find(next_to_write_);
        if (it == staged_.end()) break;
        const std::string& payload = it->second;
        put_u32(buffer, static_cast<std::uint32_t>(payload.size()));
        put_u32(buffer, crc32(payload));
        buffer += payload;
        last = next_to_write_;
        staged_.erase(it);
        ++next_to_write_;
        ++records;
      }
    }
    if (buffer.empty()) return;
    // Bounded retry on transient failures. `done` persists across retry
    // attempts, so a retry resumes exactly where the failed attempt
    // stopped — re-writing the prefix would corrupt the log, which is
    // worse than tearing it.
    std::size_t done = 0;
    try {
      run_with_policy(policy_, [&] {
        faultsim::crash_point_write(kCpCommitWrite, file_.fd(),
                                    buffer.data() + done,
                                    buffer.size() - done);
        while (done < buffer.size()) {
          done += file_.write_some(buffer.data() + done, buffer.size() - done);
        }
        faultsim::crash_point(kCpCommitPreFsync);
        file_.sync();
      });
    } catch (const std::exception& e) {
      poison(e.what());
      throw;
    } catch (...) {
      poison("unknown error in group commit");
      throw;
    }
    faultsim::crash_point(kCpCommitPostFsync);
    const std::uint64_t fsyncs =
        fsyncs_.fetch_add(1, std::memory_order_relaxed) + 1;
    obs::emit(obs::EventType::WalFlush, obs::AbortCause::None, obs::kNoAlgo,
              records, static_cast<std::uint32_t>(fsyncs));
    // Publish the new durable horizon transactionally so wait_durable
    // retry-waiters wake.
    stm::atomic([&](stm::Tx& tx) {
      if (durable_lsn_.get(tx) < last) durable_lsn_.set(tx, last);
    });
  }
}

WriteAheadLog::RecoveryResult WriteAheadLog::recover(
    const std::string& path) {
  RecoveryResult result;
  std::string data;
  try {
    data = io::read_file(path);
  } catch (const std::system_error&) {
    return result;  // no log yet: empty, clean
  }

  std::size_t off = 0;
  while (off + kHeaderBytes <= data.size()) {
    const std::uint32_t len = get_u32(data.data() + off);
    const std::uint32_t crc = get_u32(data.data() + off + 4);
    if (len > kMaxRecordBytes || off + kHeaderBytes + len > data.size()) {
      result.clean = false;  // torn tail
      break;
    }
    const char* payload = data.data() + off + kHeaderBytes;
    if (crc32(payload, len) != crc) {
      result.clean = false;  // corrupt record
      break;
    }
    result.records.emplace_back(payload, len);
    off += kHeaderBytes + len;
  }
  if (off != data.size() && result.clean) {
    result.clean = false;  // trailing garbage shorter than a header
  }
  result.valid_bytes = off;
  return result;
}

WriteAheadLog::RecoveryResult WriteAheadLog::recover_and_truncate(
    const std::string& path) {
  RecoveryResult result = recover(path);
  if (!result.clean) {
    // Under crash torture, stash the tail being cut: until the truncation
    // is durable (file + directory fsync below), a crash resurfaces it —
    // and a resurrected garbage tail sitting *under* records appended
    // after this recovery severs them from the valid prefix, losing
    // acked-durable data on the next recovery.
    std::uint64_t stash = 0;
    if (faultsim::crash_points_armed()) {
      const std::string data = io::read_file(path);
      if (data.size() > result.valid_bytes) {
        stash = faultsim::stash_undo_write(path, result.valid_bytes,
                                           data.substr(result.valid_bytes));
      }
    }
    if (::truncate(path.c_str(), static_cast<off_t>(result.valid_bytes)) !=
        0) {
      throw std::system_error(errno, std::generic_category(),
                              "wal truncate");
    }
    faultsim::crash_point(kCpRecoverPostTruncate);
    if (!g_skip_truncate_sync.load(std::memory_order_relaxed)) {
      // Make the truncation itself durable before reporting recovery
      // complete: the file's size metadata, then its directory entry.
      io::fsync_path(path);
      io::fsync_parent_dir(path);
      faultsim::commit_undo_stash(stash);
      faultsim::crash_point(kCpRecoverPostSync);
    }
  }
  return result;
}

void WriteAheadLog::testing_skip_truncate_sync(bool skip) noexcept {
  g_skip_truncate_sync.store(skip, std::memory_order_relaxed);
}

}  // namespace adtm::wal
