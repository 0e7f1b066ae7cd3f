// Stall watchdog: a background thread that samples the activity table and
// the lock-wait graph, flags threads stalled past a budget, and dumps a
// diagnostic report (state, duration, wait edges, owners, abort history).
//
// By default the watchdog observes; recovery is the job of the mechanisms
// it reports on: deadline-aware waits raise RetryTimeout,
// poisoned/orphaned locks raise at the waiter, and the contention manager
// escalates starved threads. The watchdog is the net under all of them —
// the budget is deliberately generous, so a report means a real liveness
// bug (an unbounded wait with no deadline, a leaked lock, a wait cycle
// through committed holds).
//
// Action policies (opt-in, ADTM_WATCHDOG_ACTION) turn the net into an
// enforcer for the two stalls nothing else repairs:
//  * poison-orphans — an entity whose responsible thread incarnation is
//    dead (a TxLock with a dead owner no waiter has broken, a TxCondVar
//    whose registered notifier died) is poisoned through the repair
//    callback its wait edge carries, waking every parked waiter to raise.
//  * reap-deferred — a deferred operation stalled past
//    reap_after_budgets x stall budget has its thread's reap flag set;
//    the failure-policy retry loop escalates at its next failure instead
//    of retrying forever (composing with poison_on_escalate).
//  * enforce — both. Every action fires exactly once per stalled entity
//    (per stall episode) and is counted in Counter::WatchdogActions.
//
// Each background pass that produces a report (a stall or an action)
// goes to the sink and bumps stall_reports() and Counter::WatchdogStalls.
// That is how a stall surfaces: the watchdog never sheds or delays new
// work.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace adtm::liveness {

enum class WatchdogAction : std::uint8_t {
  Report,         // report-only (default)
  PoisonOrphans,  // + poison entities whose responsible thread is dead
  ReapDeferred,   // + flag over-budget deferred ops for escalation
  Enforce,        // PoisonOrphans and ReapDeferred together
};

const char* watchdog_action_name(WatchdogAction a) noexcept;

// Parse an ADTM_WATCHDOG_ACTION value ("report", "poison-orphans",
// "reap-deferred", "enforce"); unknown strings fall back to Report.
WatchdogAction parse_watchdog_action(const std::string& s) noexcept;

// One enforcement action, delivered to WatchdogOptions::on_action.
struct WatchdogEvent {
  enum class Kind : std::uint8_t {
    OrphanPoisoned,
    DeferredReaped,
  };
  Kind kind;
  const void* entity;       // poisoned entity; nullptr for a reap
  std::uint32_t tid;        // a parked waiter / the reaped op's thread
  std::uint64_t stalled_ns; // how long the stall had lasted at the action
};

struct WatchdogOptions {
  // How long a thread may sit in one park state before it is flagged.
  // Default: ADTM_STALL_BUDGET_MS (2000 ms).
  std::uint64_t stall_budget_ns;

  // Sampling period. Default: ADTM_WATCHDOG_INTERVAL_MS (200 ms).
  std::uint64_t interval_ns;

  // Enforcement policy. Default: ADTM_WATCHDOG_ACTION (Report).
  WatchdogAction action;

  // A deferred op is reaped after this many stall budgets. Default:
  // ADTM_REAP_BUDGETS (4); clamped to >= 1.
  std::uint32_t reap_after_budgets;

  // Where reports go. Default: stderr.
  std::function<void(const std::string&)> sink;

  // Observer invoked (from the scanning thread) for every enforcement
  // action fired. Default: none.
  std::function<void(const WatchdogEvent&)> on_action;

  WatchdogOptions();
};

class Watchdog {
 public:
  Watchdog() = default;
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Start/stop the sampling thread. start() on a running watchdog
  // replaces the options (by restarting). Safe to call stop() twice.
  void start(WatchdogOptions opts = WatchdogOptions());
  void stop();
  bool running() const noexcept;

  // Replace the options without starting the sampling thread (scan_once
  // then uses these budgets). A running watchdog picks them up on restart.
  void configure(WatchdogOptions opts);

  // One synchronous sample pass with this watchdog's budgets: returns the
  // report ("" when nothing is stalled) without invoking the sink. Usable
  // without start() — also the hook for on-demand diagnostics.
  std::string scan_once();

  // The most recent nonempty report produced by the background thread.
  std::string last_report() const;

  // Number of scan passes that flagged at least one stalled thread.
  std::uint64_t stall_reports() const noexcept;

 private:
  struct Impl;
  Impl* impl_ = nullptr;  // allocated on first start()/scan_once()
  Impl& impl();
};

// Process-wide watchdog instance (tests may construct their own).
Watchdog& watchdog() noexcept;

}  // namespace adtm::liveness
