#include "liveness/watchdog.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/runtime_config.hpp"
#include "common/stats.hpp"
#include "common/thread_id.hpp"
#include "common/timing.hpp"
#include "health/health.hpp"
#include "liveness/activity.hpp"
#include "liveness/contention.hpp"
#include "liveness/wait_graph.hpp"
#include "obs/trace.hpp"

namespace adtm::liveness {

const char* watchdog_action_name(WatchdogAction a) noexcept {
  switch (a) {
    case WatchdogAction::Report: return "report";
    case WatchdogAction::PoisonOrphans: return "poison-orphans";
    case WatchdogAction::ReapDeferred: return "reap-deferred";
    case WatchdogAction::Enforce: return "enforce";
    case WatchdogAction::Degrade: return "degrade";
  }
  return "?";
}

WatchdogAction parse_watchdog_action(const std::string& s) noexcept {
  if (s == "poison-orphans") return WatchdogAction::PoisonOrphans;
  if (s == "reap-deferred") return WatchdogAction::ReapDeferred;
  if (s == "enforce") return WatchdogAction::Enforce;
  if (s == "degrade") return WatchdogAction::Degrade;
  return WatchdogAction::Report;
}

WatchdogOptions::WatchdogOptions()
    : stall_budget_ns(runtime_config().stall_budget_ms * 1000000ull),
      interval_ns(runtime_config().watchdog_interval_ms * 1000000ull),
      action(parse_watchdog_action(runtime_config().watchdog_action)),
      reap_after_budgets(runtime_config().reap_budgets),
      sink([](const std::string& report) {
        std::fputs(report.c_str(), stderr);
      }) {}

struct Watchdog::Impl {
  WatchdogOptions opts;

  mutable std::mutex mutex;
  std::condition_variable cv;
  std::thread thread;
  bool stop_requested = false;
  bool thread_running = false;
  std::string last_report;
  std::atomic<std::uint64_t> stall_reports{0};

  // Exactly-once bookkeeping for enforcement actions, guarded by
  // scan_mutex (background scans and scan_once may interleave):
  // an entity leaves the poisoned set when it is observed repaired, so a
  // fresh stall episode may fire again; a reap is keyed by the deferred
  // op's start stamp, so each op is reaped at most once.
  std::mutex scan_mutex;
  std::unordered_set<const void*> poisoned_entities;
  std::unordered_map<std::uint32_t, std::uint64_t> reaped_ops;
  bool degrade_signal = false;  // monitor's watchdog-stall signal raised

  void fire(const WatchdogOptions& o, const WatchdogEvent& ev,
            std::ostringstream& out) {
    stats().add(Counter::WatchdogActions);
    if (ev.kind == WatchdogEvent::Kind::OrphanPoisoned) {
      out << "watchdog action: poisoned orphaned entity " << ev.entity
          << " (responsible thread dead; waiter thread " << ev.tid
          << " parked " << ev.stalled_ns / 1000000 << " ms)\n";
    } else if (ev.kind == WatchdogEvent::Kind::DeferredReaped) {
      out << "watchdog action: reap requested for thread " << ev.tid
          << " (deferred op running " << ev.stalled_ns / 1000000
          << " ms)\n";
    } else {
      out << "watchdog action: health degraded (thread " << ev.tid
          << " stalled " << ev.stalled_ns / 1000000
          << " ms; admission gate notified)\n";
    }
    if (o.on_action) o.on_action(ev);
  }

  // The enforcement pass: poison orphaned entities reachable through live
  // wait edges (safe: a parked waiter keeps the entity alive) and flag
  // over-budget deferred ops. Returns action lines for the report.
  std::string enforce(const WatchdogOptions& o, std::uint64_t now) {
    const bool poison = o.action == WatchdogAction::PoisonOrphans ||
                        o.action == WatchdogAction::Enforce;
    const bool reap = o.action == WatchdogAction::ReapDeferred ||
                      o.action == WatchdogAction::Enforce;
    if (!poison && !reap) return "";
    std::ostringstream out;
    std::lock_guard<std::mutex> lk(scan_mutex);
    if (poison) {
      for (const WaitEdgeSnapshot& e : snapshot_wait_edges()) {
        if (e.orphaned == nullptr || e.poison == nullptr) continue;
        if (!e.orphaned(e.entity)) {
          poisoned_entities.erase(e.entity);  // repaired: re-arm
          continue;
        }
        if (now < e.since_ns + o.stall_budget_ns) continue;
        if (!poisoned_entities.insert(e.entity).second) continue;
        e.poison(e.entity);
        fire(o,
             WatchdogEvent{WatchdogEvent::Kind::OrphanPoisoned, e.entity,
                           e.tid, now - e.since_ns},
             out);
      }
    }
    if (reap) {
      const std::uint64_t reap_ns =
          o.stall_budget_ns *
          (reap_after_budgets_clamped(o.reap_after_budgets));
      for (std::uint32_t tid = 0; tid < thread_high_water(); ++tid) {
        if (state_of(tid) != ThreadState::DeferredOp) continue;
        const std::uint64_t since = state_since_ns(tid);
        if (since == 0 || now < since + reap_ns) continue;
        if (!thread_slot_live(tid)) continue;
        auto [it, fresh] = reaped_ops.try_emplace(tid, since);
        if (!fresh) {
          if (it->second == since) continue;  // this op already reaped
          it->second = since;
        }
        request_reap(tid);
        fire(o,
             WatchdogEvent{WatchdogEvent::Kind::DeferredReaped, nullptr, tid,
                           now - since},
             out);
      }
    }
    return out.str();
  }

  static std::uint32_t reap_after_budgets_clamped(std::uint32_t n) noexcept {
    return n == 0 ? 1 : n;
  }

  // Builds the report for one sample pass; "" when nothing is stalled and
  // no enforcement action fired.
  std::string scan(const WatchdogOptions& o) {
    const std::uint64_t now = now_ns();
    std::ostringstream out;
    bool stalled = false;
    std::uint32_t first_stalled_tid = 0;
    std::uint64_t first_stalled_ns = 0;
    for (std::uint32_t tid = 0; tid < thread_high_water(); ++tid) {
      const ThreadState state = state_of(tid);
      if (state == ThreadState::Idle || state == ThreadState::InTx) continue;
      const std::uint64_t since = state_since_ns(tid);
      if (since == 0 || now < since + o.stall_budget_ns) continue;
      if (!thread_slot_live(tid)) continue;  // exited mid-park; stale slot
      if (!stalled) {
        stalled = true;
        first_stalled_tid = tid;
        first_stalled_ns = now - since;
        out << "adtm watchdog: stalled threads (budget "
            << o.stall_budget_ns / 1000000 << " ms):\n";
      }
      out << "  thread " << tid << ": " << state_name(state) << " for "
          << (now - since) / 1000000 << " ms";
      const ContentionManager& cm = contention();
      out << " (consecutive aborts " << cm.consecutive_aborts(tid)
          << ", total aborts " << cm.total_aborts(tid) << ", escalations "
          << cm.escalations(tid) << ")\n";
    }
    // Degrade enforcement: flip the health monitor's stall signal on
    // episode boundaries — raised when a scan finds over-budget threads,
    // cleared on the first clean scan afterwards — so the admission gate
    // backs new work off while the process is wedged and recovers
    // automatically once the stall drains.
    if (o.action == WatchdogAction::Degrade) {
      bool flip = false;
      {
        std::lock_guard<std::mutex> lk(scan_mutex);
        flip = stalled != degrade_signal;
        if (flip) degrade_signal = stalled;
      }
      if (flip) {
        health::monitor().set_watchdog_stall(stalled);
        if (stalled) {
          fire(o,
               WatchdogEvent{WatchdogEvent::Kind::HealthDegraded, nullptr,
                             first_stalled_tid, first_stalled_ns},
               out);
        }
      }
    }
    const std::string actions = enforce(o, now);
    if (!stalled && actions.empty()) return "";
    if (stalled) {
      const std::string graph = dump_wait_graph();
      if (!graph.empty()) out << "wait graph:\n" << graph;
      // With tracing on, a stall diagnosis carries the per-lock wait and
      // hold times and the events leading up to it — which transactions
      // aborted (and why), who parked where.
      if (obs::enabled()) {
        const obs::RunSummary sum = obs::summary();
        if (!sum.locks.empty() || sum.locks_dropped != 0) {
          out << "lock stats (" << sum.locks_dropped << " dropped):\n";
        }
        for (const obs::LockSummary& l : sum.locks) {
          out << "lock " << l.lock << ": " << l.waits << " waits (p50 "
              << l.wait_p50 / 1000 << " us, p99 " << l.wait_p99 / 1000
              << " us), " << l.holds << " holds (p50 " << l.hold_p50 / 1000
              << " us, p99 " << l.hold_p99 / 1000 << " us)\n";
        }
        const std::string tail = obs::recent_tail(32);
        if (!tail.empty()) out << "recent trace events:\n" << tail;
      }
    }
    out << actions;
    return out.str();
  }

  void run() {
    std::unique_lock<std::mutex> lk(mutex);
    while (!stop_requested) {
      cv.wait_for(lk, std::chrono::nanoseconds(opts.interval_ns),
                  [this] { return stop_requested; });
      if (stop_requested) break;
      // Sample without the mutex: the scan reads only lock-free tables
      // (plus the scan mutex for enforcement bookkeeping).
      WatchdogOptions snapshot = opts;
      lk.unlock();
      std::string report = scan(snapshot);
      lk.lock();
      if (!report.empty()) {
        stall_reports.fetch_add(1, std::memory_order_relaxed);
        stats().add(Counter::WatchdogStalls);
        last_report = report;
        if (opts.sink) {
          auto sink = opts.sink;
          lk.unlock();
          sink(report);
          lk.lock();
        }
      }
    }
  }
};

Watchdog::Impl& Watchdog::impl() {
  if (impl_ == nullptr) impl_ = new Impl();
  return *impl_;
}

Watchdog::~Watchdog() {
  stop();
  delete impl_;
}

void Watchdog::start(WatchdogOptions opts) {
  stop();
  Impl& im = impl();
  {
    std::lock_guard<std::mutex> lk(im.mutex);
    im.opts = std::move(opts);
    im.stop_requested = false;
    im.thread_running = true;
  }
  im.thread = std::thread([&im] { im.run(); });
}

void Watchdog::configure(WatchdogOptions opts) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  im.opts = std::move(opts);
}

void Watchdog::stop() {
  if (impl_ == nullptr) return;
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lk(im.mutex);
    if (!im.thread_running) return;
    im.stop_requested = true;
  }
  im.cv.notify_all();
  im.thread.join();
  std::lock_guard<std::mutex> lk(im.mutex);
  im.thread_running = false;
}

bool Watchdog::running() const noexcept {
  if (impl_ == nullptr) return false;
  std::lock_guard<std::mutex> lk(impl_->mutex);
  return impl_->thread_running && !impl_->stop_requested;
}

std::string Watchdog::scan_once() {
  Impl& im = impl();
  WatchdogOptions snapshot;
  {
    std::lock_guard<std::mutex> lk(im.mutex);
    snapshot = im.opts;
  }
  return im.scan(snapshot);
}

std::string Watchdog::last_report() const {
  if (impl_ == nullptr) return "";
  std::lock_guard<std::mutex> lk(impl_->mutex);
  return impl_->last_report;
}

std::uint64_t Watchdog::stall_reports() const noexcept {
  if (impl_ == nullptr) return 0;
  return impl_->stall_reports.load(std::memory_order_relaxed);
}

Watchdog& watchdog() noexcept {
  static Watchdog instance;
  return instance;
}

}  // namespace adtm::liveness
