// Minimal asynchronous I/O engine (substrate for the fd-pool use case).
//
// MySQL InnoDB performs file updates via asynchronous I/O: critical
// sections only touch pool metadata, and the data transfer happens outside
// any lock. We reproduce that structure with a submission queue drained by
// background worker threads.
//
// Failure model: a worker retries transient errors (EINTR, EAGAIN,
// ENOSPC) with exponential backoff up to a bound, then reports the errno
// to the request's completion callback as a std::error_code — an async
// engine cannot throw into its submitter, but it must never silently drop
// a failed write either. The callback always runs (success or failure) so
// submitter-side metadata (pending counts) stays consistent. A callback
// that itself throws is caught and counted (Counter::IoCallbackErrors)
// instead of killing the worker thread.
//
// Backpressure: the submission queue is bounded. A submitter that finds
// it full blocks until a worker dequeues (Counter::QueueBlockWaits), so
// memory stays bounded and a slow disk slows its producers. Only a
// submission that races with the engine's destruction is rejected, with
// EAGAIN (Counter::QueueSheds).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

namespace adtm::fdpool {

class AsyncIOEngine {
 public:
  // Completion callback: invoked on a worker thread with a default
  // (falsy) error_code on success, or the failing errno. May start
  // transactions. A rejected request's callback runs synchronously on
  // the submitting thread with EAGAIN.
  using Completion = std::function<void(std::error_code)>;

  static constexpr std::size_t kDefaultCapacity = 4096;

  // `capacity` bounds the submission queue (at least 1): a submitter
  // that finds it full blocks until a worker makes room.
  explicit AsyncIOEngine(unsigned workers = 1,
                         std::size_t capacity = kDefaultCapacity);
  ~AsyncIOEngine();

  AsyncIOEngine(const AsyncIOEngine&) = delete;
  AsyncIOEngine& operator=(const AsyncIOEngine&) = delete;

  // Queue a positional write of `data` to `fd` at `offset`. `done` (if
  // any) runs after the write completes or fails. Blocks while the queue
  // is full. Returns false when the request was rejected because the
  // engine is stopping — the callback has then already run with EAGAIN.
  bool submit_write(int fd, std::uint64_t offset, std::string data,
                    Completion done = {});

  // Block until every submitted request has completed.
  void drain();

  std::uint64_t completed() const noexcept;

  // Requests whose write failed permanently (errno delivered to `done`).
  std::uint64_t failed() const noexcept;

  std::size_t depth() const;  // current queue depth
  // Completion callbacks that threw (caught; worker survived).
  std::uint64_t callback_errors() const noexcept {
    return callback_errors_.load(std::memory_order_relaxed);
  }

 private:
  struct Request {
    int fd;
    std::uint64_t offset;
    std::string data;
    Completion done;
  };

  void worker_loop();
  void run_completion(const Completion& done, std::error_code ec) noexcept;

  const std::size_t capacity_;

  mutable std::mutex mutex_;
  std::condition_variable have_work_;
  std::condition_variable have_space_;
  std::condition_variable drained_;
  std::deque<Request> queue_;
  unsigned in_flight_ = 0;
  bool stopping_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::atomic<std::uint64_t> callback_errors_{0};
  std::vector<std::thread> workers_;
};

}  // namespace adtm::fdpool
