// Low-overhead event counters for the TM runtime.
//
// Counters are sharded per thread (one cache line per thread per group) so
// that hot-path increments never contend; reads sum across shards and are
// approximate while threads are running, exact at quiescent points (which
// is when tests and benches read them).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>

#include "common/align.hpp"
#include "common/thread_id.hpp"

namespace adtm {

enum class Counter : std::uint32_t {
  TxStart,
  TxCommit,
  TxAbortConflict,   // validation / lock-acquire failure
  TxAbortCapacity,   // HTM-sim footprint overflow
  TxAbortExplicit,   // user-requested abort
  TxRetry,           // Harris retry invocations
  TxIrrevocable,     // entries into serial-irrevocable mode
  TxHtmFallback,     // HTM-sim retries exhausted -> global lock
  QuiesceWaits,      // commits that had to wait for a concurrent tx
  DeferredOps,       // operations executed via atomic_defer
  TxLockAcquires,
  TxLockSubscribes,
  FaultsInjected,       // faults fired by the faultsim engine
  FailureRetries,       // deferred/I-O operations re-tried after a transient failure
  FailureEscalations,   // failures that exhausted retries or were permanent
  RetryTimeouts,        // deadline-aware retry waits that expired
  CmEscalations,        // starvation escalations into serial-irrevocable mode
  DeadlocksDetected,    // wait-graph cycles detected (and broken by raising)
  WatchdogStalls,       // threads the watchdog flagged as stalled past budget
  LockLeaks,            // cross-transaction lock holds leaked by exiting threads
  LockPoisons,          // TxLock/TxCondVar poison events
  WatchdogActions,      // enforcement actions (poison/reap) the watchdog fired
  QueueSheds,           // async-I/O submissions rejected by a stopping engine
  QueueBlockWaits,      // submits that blocked on a full queue (backpressure)
  IoCallbackErrors,     // async-I/O completion callbacks that threw
  kCount
};

const char* counter_name(Counter c) noexcept;

class StatsRegistry {
 public:
  void add(Counter c, std::uint64_t n = 1) noexcept {
    shards_[thread_id()]
        ->at(static_cast<std::uint32_t>(c))
        .fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t total(Counter c) const noexcept;

  void reset() noexcept;

  // Multi-line human-readable dump of all nonzero counters.
  std::string report() const;

 private:
  using Shard =
      std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(Counter::kCount)>;
  CacheAligned<Shard> shards_[kMaxThreads];
};

// Global registry used by the STM runtime and deferral machinery.
StatsRegistry& stats() noexcept;

// --- latency histograms ----------------------------------------------------
//
// Fixed power-of-two-bucket histogram for nanosecond durations: bucket 0
// holds exact zeros, bucket b >= 1 holds [2^(b-1), 2^b) ns. Concurrent
// record() is wait-free (one relaxed fetch_add); percentile reads are
// approximate while writers run, exact at quiescent points. 64 buckets
// cover the full uint64 range, so nothing is ever clipped.
class LatencyHistogram {
 public:
  static constexpr std::uint32_t kBuckets = 64;

  void record(std::uint64_t ns) noexcept {
    buckets_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
  }

  // Add every bucket of `other` into this histogram (summing per-thread
  // histograms into one distribution).
  void merge(const LatencyHistogram& other) noexcept;

  std::uint64_t count() const noexcept;

  // Value representative of the bucket holding the p-th percentile sample
  // (p in (0, 100]); 0 when the histogram is empty. The representative is
  // the bucket's geometric midpoint, so the error is bounded by the 2x
  // bucket width — plenty for p50/p99 capacity planning.
  std::uint64_t percentile(double p) const noexcept;

  void reset() noexcept;

  static std::uint32_t bucket_of(std::uint64_t ns) noexcept {
    const auto width = static_cast<std::uint32_t>(std::bit_width(ns));
    return width < kBuckets ? width : kBuckets - 1;
  }

  // Midpoint value reported for samples in bucket b (inverse of bucket_of).
  static std::uint64_t bucket_value(std::uint32_t b) noexcept {
    if (b == 0) return 0;
    if (b == 1) return 1;
    return (std::uint64_t{1} << (b - 1)) + (std::uint64_t{1} << (b - 2));
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

}  // namespace adtm
