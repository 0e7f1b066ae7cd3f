#include "common/stats.hpp"

#include <cmath>
#include <sstream>

namespace adtm {

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::TxStart: return "tx_start";
    case Counter::TxCommit: return "tx_commit";
    case Counter::TxAbortConflict: return "tx_abort_conflict";
    case Counter::TxAbortCapacity: return "tx_abort_capacity";
    case Counter::TxAbortExplicit: return "tx_abort_explicit";
    case Counter::TxRetry: return "tx_retry";
    case Counter::TxIrrevocable: return "tx_irrevocable";
    case Counter::TxHtmFallback: return "tx_htm_fallback";
    case Counter::QuiesceWaits: return "quiesce_waits";
    case Counter::DeferredOps: return "deferred_ops";
    case Counter::TxLockAcquires: return "txlock_acquires";
    case Counter::TxLockSubscribes: return "txlock_subscribes";
    case Counter::FaultsInjected: return "faults_injected";
    case Counter::FailureRetries: return "failure_retries";
    case Counter::FailureEscalations: return "failure_escalations";
    case Counter::RetryTimeouts: return "retry_timeouts";
    case Counter::CmEscalations: return "cm_escalations";
    case Counter::DeadlocksDetected: return "deadlocks_detected";
    case Counter::WatchdogStalls: return "watchdog_stalls";
    case Counter::LockLeaks: return "txlock_leaked_holds";
    case Counter::LockPoisons: return "lock_poisons";
    case Counter::WatchdogActions: return "watchdog_actions";
    case Counter::QueueSheds: return "queue_sheds";
    case Counter::QueueBlockWaits: return "queue_block_waits";
    case Counter::IoCallbackErrors: return "io_callback_errors";
    case Counter::kCount: break;
  }
  return "unknown";
}

std::uint64_t StatsRegistry::total(Counter c) const noexcept {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->at(static_cast<std::uint32_t>(c))
               .load(std::memory_order_relaxed);
  }
  return sum;
}

void StatsRegistry::reset() noexcept {
  for (auto& shard : shards_) {
    for (auto& counter : *shard) counter.store(0, std::memory_order_relaxed);
  }
}

std::string StatsRegistry::report() const {
  std::ostringstream out;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(Counter::kCount);
       ++i) {
    const auto c = static_cast<Counter>(i);
    const std::uint64_t v = total(c);
    if (v != 0) out << counter_name(c) << " = " << v << '\n';
  }
  return out.str();
}

StatsRegistry& stats() noexcept {
  static StatsRegistry registry;
  return registry;
}

// --- LatencyHistogram ------------------------------------------------------

std::uint64_t LatencyHistogram::count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t LatencyHistogram::percentile(double p) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  if (p <= 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  auto rank = static_cast<std::uint64_t>(std::ceil(p / 100.0 *
                                                   static_cast<double>(n)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::uint32_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) return bucket_value(b);
  }
  return bucket_value(kBuckets - 1);
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  for (std::uint32_t b = 0; b < kBuckets; ++b) {
    buckets_[b].fetch_add(other.buckets_[b].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
}

void LatencyHistogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

}  // namespace adtm
