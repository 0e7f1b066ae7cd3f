#include "fdpool/async_io.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "common/backoff.hpp"
#include "common/stats.hpp"
#include "faultsim/crashpoint.hpp"
#include "faultsim/faultsim.hpp"
#include "obs/trace.hpp"

namespace adtm::fdpool {
namespace {

// Crash-torture site: an async worker about to issue the positional write
// for a submitted request (see tools/crashmat).
const faultsim::CrashPointId kCpPwrite =
    faultsim::register_crash_point("fdpool.pwrite", "fdpool", true);

// Crash-torture site: a worker just dequeued a request it has not yet
// written — dying here loses an accepted-but-unpersisted submission, the
// window the fd-pool's pending counts must tolerate.
const faultsim::CrashPointId kCpDequeue =
    faultsim::register_crash_point("fdpool.worker.dequeue", "fdpool", false);

// Crash-torture site: a caller entered drain() while requests may still
// be queued or in flight — death during the quiesce barrier.
const faultsim::CrashPointId kCpDrain =
    faultsim::register_crash_point("fdpool.drain", "fdpool", false);

// A worker must never hang on an endlessly failing descriptor: transient
// errors get this many backed-off retries, then the error escalates to
// the completion callback.
constexpr unsigned kMaxTransientRetries = 16;

bool transient_errno(int e) noexcept {
  return e == EINTR || e == EAGAIN || e == ENOSPC;
}

}  // namespace

AsyncIOEngine::AsyncIOEngine(unsigned workers, std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  if (workers == 0) workers = 1;
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AsyncIOEngine::~AsyncIOEngine() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = true;
  }
  have_work_.notify_all();
  have_space_.notify_all();  // blocked submitters give up (EAGAIN)
  for (auto& w : workers_) w.join();
}

// Completion callbacks may run user code; one that throws must not kill
// the worker thread (or the submitter, on the synchronous rejection
// path) — catch and count it instead.
void AsyncIOEngine::run_completion(const Completion& done,
                                   std::error_code ec) noexcept {
  if (!done) return;
  try {
    done(ec);
  } catch (...) {
    callback_errors_.fetch_add(1, std::memory_order_relaxed);
    stats().add(Counter::IoCallbackErrors);
  }
}

bool AsyncIOEngine::submit_write(int fd, std::uint64_t offset,
                                 std::string data, Completion done) {
  bool rejected;
  {
    std::unique_lock<std::mutex> lk(mutex_);
    if (!stopping_ && queue_.size() >= capacity_) {
      stats().add(Counter::QueueBlockWaits);
      have_space_.wait(
          lk, [this] { return stopping_ || queue_.size() < capacity_; });
    }
    rejected = stopping_;
    if (!rejected) {
      queue_.push_back(Request{fd, offset, std::move(data), std::move(done)});
    }
  }
  if (rejected) {
    stats().add(Counter::QueueSheds);
    obs::emit(obs::EventType::IoComplete, obs::AbortCause::None, obs::kNoAlgo,
              0, static_cast<std::uint32_t>(EAGAIN));
    run_completion(done, std::error_code(EAGAIN, std::generic_category()));
    return false;
  }
  have_work_.notify_one();
  return true;
}

void AsyncIOEngine::drain() {
  faultsim::crash_point(kCpDrain);
  std::unique_lock<std::mutex> lk(mutex_);
  drained_.wait(lk, [this] { return queue_.empty() && in_flight_ == 0; });
}

std::uint64_t AsyncIOEngine::completed() const noexcept {
  std::lock_guard<std::mutex> lk(mutex_);
  return completed_;
}

std::uint64_t AsyncIOEngine::failed() const noexcept {
  std::lock_guard<std::mutex> lk(mutex_);
  return failed_;
}

std::size_t AsyncIOEngine::depth() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return queue_.size();
}

void AsyncIOEngine::worker_loop() {
  for (;;) {
    Request req;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      have_work_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      req = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    have_space_.notify_one();
    faultsim::crash_point(kCpDequeue);

    std::error_code ec;
    const char* p = req.data.data();
    std::size_t remaining = req.data.size();
    std::uint64_t off = req.offset;
    faultsim::crash_point_pwrite(kCpPwrite, req.fd, p, remaining, off);
    Backoff backoff;
    unsigned retries = 0;
    while (remaining > 0) {
      std::size_t ask = remaining;
      ssize_t rv;
      int injected = 0;
      if (faultsim::active()) {
        const faultsim::Fault f =
            faultsim::engine().on_syscall(faultsim::Op::Pwrite, req.fd);
        if (f.kind == faultsim::FaultKind::Errno) {
          injected = f.err;
        } else if (f.kind == faultsim::FaultKind::ShortWrite) {
          ask = std::max<std::size_t>(std::min(ask, f.max_bytes), 1);
        } else if (f.kind == faultsim::FaultKind::Crash) {
          // A crash point in an async worker cannot unwind the submitter;
          // persist the torn prefix and surface a permanent I/O error.
          const std::size_t persist = std::min(remaining, f.max_bytes);
          if (persist > 0) {
            (void)!::pwrite(req.fd, p, persist, static_cast<off_t>(off));
          }
          ec = std::error_code(EIO, std::generic_category());
          stats().add(Counter::FailureEscalations);
          break;
        }
      }
      if (injected != 0) {
        errno = injected;
        rv = -1;
      } else {
        rv = ::pwrite(req.fd, p, ask, static_cast<off_t>(off));
      }
      if (rv < 0) {
        if (transient_errno(errno) && retries < kMaxTransientRetries) {
          ++retries;
          stats().add(Counter::FailureRetries);
          backoff.pause();
          continue;
        }
        // Permanent (or retry budget exhausted): report to the callback
        // rather than dropping the error on the worker thread.
        ec = std::error_code(errno, std::generic_category());
        stats().add(Counter::FailureEscalations);
        break;
      }
      p += rv;
      remaining -= static_cast<std::size_t>(rv);
      off += static_cast<std::uint64_t>(rv);
    }

    obs::emit(obs::EventType::IoComplete, obs::AbortCause::None, obs::kNoAlgo,
              req.data.size() - remaining,
              static_cast<std::uint32_t>(ec.value()));
    run_completion(req.done, ec);

    {
      std::lock_guard<std::mutex> lk(mutex_);
      --in_flight_;
      ++completed_;
      if (ec) ++failed_;
      if (queue_.empty() && in_flight_ == 0) drained_.notify_all();
    }
  }
}

}  // namespace adtm::fdpool
