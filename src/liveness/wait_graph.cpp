#include "liveness/wait_graph.hpp"

#include <sstream>
#include <vector>

#include "common/align.hpp"
#include "common/stats.hpp"
#include "common/thread_id.hpp"
#include "common/timing.hpp"
#include "liveness/activity.hpp"

namespace adtm::liveness {
namespace {

struct WaitEdge {
  // `lock` is the linearization point: non-null means the edge (lock,
  // owner_fn, site, since, kind, repair callbacks) is published. Stores to
  // the payload fields happen before the seq_cst store of `lock`.
  std::atomic<const void*> lock{nullptr};
  std::atomic<OwnerFn> owner_fn{nullptr};
  std::atomic<const char*> site{nullptr};
  std::atomic<std::uint64_t> since_ns{0};
  std::atomic<WaitKind> kind{WaitKind::Lock};
  std::atomic<OrphanFn> orphan_fn{nullptr};
  std::atomic<PoisonFn> poison_fn{nullptr};
};

CacheAligned<WaitEdge> g_edges[kMaxThreads];

struct PinnedSlot {
  std::uint32_t holds = 0;
  bool edge_published = false;
};

PinnedSlot& pinned_slot() noexcept {
  thread_local PinnedSlot slot;
  return slot;
}

// One step of the owner-chain walk: returns the owner of the lock `tid` is
// waiting for, or kNoThread when tid is not (visibly) blocked.
std::uint32_t wait_target(std::uint32_t tid) noexcept {
  WaitEdge& e = *g_edges[tid];
  const void* lock = e.lock.load(std::memory_order_seq_cst);
  if (lock == nullptr) return kNoThread;
  OwnerFn fn = e.owner_fn.load(std::memory_order_relaxed);
  if (fn == nullptr) return kNoThread;
  return fn(lock);
}

// Walk owner chains from `start`; fills `cycle` with the thread ids of a
// cycle through `start` and returns true, or returns false.
bool find_cycle(std::uint32_t start, std::vector<std::uint32_t>* cycle) {
  cycle->clear();
  std::uint32_t cur = start;
  for (std::uint32_t steps = 0; steps <= kMaxThreads; ++steps) {
    const std::uint32_t owner = wait_target(cur);
    if (owner == kNoThread || owner >= kMaxThreads) return false;
    if (owner == cur) return false;  // reentrant: about to succeed
    cycle->push_back(cur);
    if (owner == start) return true;
    cur = owner;
  }
  return false;  // walk longer than the thread count: raced, give up
}

// A cycle is only trustworthy if every other member is parked: a parked
// thread has rolled its attempt back, so the ownership the walk read
// through it is committed state, not a speculative write an eager-mode
// abort is about to revoke. (The checking thread itself blocks from a
// non-transactional acquire path and holds nothing in-attempt.)
bool members_parked(const std::vector<std::uint32_t>& cycle,
                    std::uint32_t self) noexcept {
  for (std::uint32_t tid : cycle) {
    if (tid == self) continue;
    const ThreadState s = state_of(tid);
    if (s != ThreadState::RetryWait && s != ThreadState::SerialWait) {
      return false;
    }
  }
  return true;
}

std::string describe_cycle(const std::vector<std::uint32_t>& cycle) {
  std::ostringstream out;
  out << "deadlock cycle:";
  for (std::uint32_t tid : cycle) {
    WaitEdge& e = *g_edges[tid];
    const char* site = e.site.load(std::memory_order_relaxed);
    out << " [thread " << tid << " " << (site ? site : "?") << " lock "
        << e.lock.load(std::memory_order_relaxed) << " -> thread "
        << wait_target(tid) << "]";
  }
  return out.str();
}

}  // namespace

void publish_wait(const void* entity, OwnerFn owner_of, const char* site,
                  WaitKind kind, OrphanFn orphaned, PoisonFn poison) noexcept {
  WaitEdge& e = *g_edges[thread_id()];
  e.owner_fn.store(owner_of, std::memory_order_relaxed);
  e.site.store(site, std::memory_order_relaxed);
  e.since_ns.store(now_ns(), std::memory_order_relaxed);
  e.kind.store(kind, std::memory_order_relaxed);
  e.orphan_fn.store(orphaned, std::memory_order_relaxed);
  e.poison_fn.store(poison, std::memory_order_relaxed);
  e.lock.store(entity, std::memory_order_seq_cst);
  pinned_slot().edge_published = true;
}

void publish_wait(const void* lock, OwnerFn owner_of,
                  const char* site) noexcept {
  publish_wait(lock, owner_of, site, WaitKind::Lock, nullptr, nullptr);
}

void clear_wait() noexcept {
  PinnedSlot& slot = pinned_slot();
  if (!slot.edge_published) return;
  g_edges[thread_id()]->lock.store(nullptr, std::memory_order_seq_cst);
  slot.edge_published = false;
}

bool has_wait_edge() noexcept { return pinned_slot().edge_published; }

bool others_wait_on(const void* entity) noexcept {
  const std::uint32_t me = thread_id();
  const std::uint32_t n = thread_high_water();
  for (std::uint32_t tid = 0; tid < n; ++tid) {
    if (tid != me &&
        g_edges[tid]->lock.load(std::memory_order_acquire) == entity) {
      return true;
    }
  }
  return false;
}

bool wait_edge_checkable() noexcept {
  if (!pinned_slot().edge_published) return false;
  const WaitEdge& e = *g_edges[thread_id()];
  if (e.kind.load(std::memory_order_relaxed) == WaitKind::CondVar) return true;
  return pinned_holds() > 0;
}

void deadlock_check() {
  const std::uint32_t me = thread_id();
  std::vector<std::uint32_t> cycle;
  if (!find_cycle(me, &cycle)) return;
  if (!members_parked(cycle, me)) return;
  // Re-validate: edges and owners are sampled racily, so require the same
  // cycle to hold on a second pass before declaring a deadlock. A real
  // deadlock is stable (every participant is parked); a raced one is not.
  std::vector<std::uint32_t> second;
  if (!find_cycle(me, &second) || second != cycle) return;
  if (!members_parked(second, me)) return;
  stats().add(Counter::DeadlocksDetected);
  throw DeadlockError(describe_cycle(cycle));
}

std::uint32_t pinned_holds() noexcept { return pinned_slot().holds; }

void pinned_enter() noexcept { ++pinned_slot().holds; }

void pinned_exit() noexcept {
  PinnedSlot& slot = pinned_slot();
  if (slot.holds > 0) --slot.holds;
}

std::vector<WaitEdgeSnapshot> snapshot_wait_edges() {
  std::vector<WaitEdgeSnapshot> edges;
  for (std::uint32_t tid = 0; tid < kMaxThreads; ++tid) {
    WaitEdge& e = *g_edges[tid];
    const void* entity = e.lock.load(std::memory_order_seq_cst);
    if (entity == nullptr) continue;
    edges.push_back(WaitEdgeSnapshot{
        tid, entity, e.site.load(std::memory_order_relaxed),
        e.kind.load(std::memory_order_relaxed),
        e.since_ns.load(std::memory_order_relaxed), wait_target(tid),
        e.orphan_fn.load(std::memory_order_relaxed),
        e.poison_fn.load(std::memory_order_relaxed)});
  }
  return edges;
}

std::string dump_wait_graph() {
  std::ostringstream out;
  const std::uint64_t now = now_ns();
  for (std::uint32_t tid = 0; tid < kMaxThreads; ++tid) {
    WaitEdge& e = *g_edges[tid];
    const void* lock = e.lock.load(std::memory_order_seq_cst);
    if (lock == nullptr) continue;
    const bool cv =
        e.kind.load(std::memory_order_relaxed) == WaitKind::CondVar;
    const std::uint32_t owner = wait_target(tid);
    const std::uint64_t since = e.since_ns.load(std::memory_order_relaxed);
    const char* site = e.site.load(std::memory_order_relaxed);
    out << "  thread " << tid << ": " << (site ? site : "?") << " on "
        << (cv ? "condvar " : "lock ") << lock << " for "
        << (now > since ? (now - since) / 1000000 : 0) << " ms, "
        << (cv ? "notifier " : "owner ");
    if (owner == kNoThread) {
      out << (cv ? "none (unregistered or dead)"
                 : "none (wake-up in flight)");
    } else {
      out << owner << (thread_slot_live(owner) ? " (live)" : " (exited)");
    }
    out << '\n';
    std::vector<std::uint32_t> cycle;
    if (find_cycle(tid, &cycle) && !cycle.empty() && cycle.front() == tid) {
      out << "  " << describe_cycle(cycle) << '\n';
    }
  }
  return out.str();
}

}  // namespace adtm::liveness
