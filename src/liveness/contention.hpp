// Starvation-resistant contention management.
//
// The base runtime already serializes a transaction after N failed
// attempts of the *same* atomic() call. That bounds one call's attempts
// but not a thread's fate: under pathological interleavings a thread can
// lose every conflict across many transactions while its rivals commit —
// the starvation Kuznetsov & Ravi quantify for lock-based TMs. This
// manager tracks per-thread conflict history *across* transactions
// (aborts extend a streak, a commit ends it). Once the streak reaches
// Config::starvation_threshold the stm driver runs the thread's next
// transaction serial-irrevocable: it holds the serial gate, where it
// cannot lose. Every serial transaction commits, so every thread
// eventually commits: the escalation is starvation-free.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/align.hpp"
#include "common/thread_id.hpp"

namespace adtm::liveness {

class ContentionManager {
 public:
  // A conflict abort happened on the calling thread (any transaction).
  void on_conflict_abort() noexcept {
    Slot& s = *slots_[thread_id()];
    s.consecutive.fetch_add(1, std::memory_order_relaxed);
    s.total_aborts.fetch_add(1, std::memory_order_relaxed);
  }

  // The calling thread committed: its streak of losses is over.
  void on_commit() noexcept {
    Slot& s = *slots_[thread_id()];
    if (s.consecutive.load(std::memory_order_relaxed) != 0) {
      s.consecutive.store(0, std::memory_order_relaxed);
    }
  }

  // Should the calling thread's next transaction run serialized?
  // `threshold` is Config::starvation_threshold; 0 disables escalation.
  bool should_escalate(std::uint32_t threshold) const noexcept {
    if (threshold == 0) return false;
    return slots_[thread_id()]->consecutive.load(std::memory_order_relaxed) >=
           threshold;
  }

  // The calling thread escalated (diagnostics; does not reset the streak —
  // the serial commit's on_commit does).
  void on_escalation() noexcept {
    slots_[thread_id()]->escalations.fetch_add(1, std::memory_order_relaxed);
  }

  // Slot `tid`'s thread exited: its streak dies with it.
  void forget_streak_of(std::uint32_t tid) noexcept {
    slots_[tid]->consecutive.store(0, std::memory_order_relaxed);
  }

  // Watchdog/report accessors (racy by design).
  std::uint32_t consecutive_aborts(std::uint32_t tid) const noexcept {
    return slots_[tid]->consecutive.load(std::memory_order_relaxed);
  }
  std::uint64_t total_aborts(std::uint32_t tid) const noexcept {
    return slots_[tid]->total_aborts.load(std::memory_order_relaxed);
  }
  std::uint64_t escalations(std::uint32_t tid) const noexcept {
    return slots_[tid]->escalations.load(std::memory_order_relaxed);
  }

  // Test support: forget all history.
  void reset() noexcept {
    for (auto& slot : slots_) {
      slot->consecutive.store(0, std::memory_order_relaxed);
      slot->total_aborts.store(0, std::memory_order_relaxed);
      slot->escalations.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct Slot {
    std::atomic<std::uint32_t> consecutive{0};
    std::atomic<std::uint64_t> total_aborts{0};
    std::atomic<std::uint64_t> escalations{0};
  };
  CacheAligned<Slot> slots_[kMaxThreads];
};

// The process-wide manager consulted by the transaction driver.
ContentionManager& contention() noexcept;

}  // namespace adtm::liveness
