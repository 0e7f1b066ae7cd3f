#include "defer/failure_policy.hpp"

#include <cerrno>
#include <mutex>
#include <system_error>
#include <utility>

#include "common/backoff.hpp"
#include "common/stats.hpp"
#include "faultsim/faultsim.hpp"
#include "liveness/activity.hpp"

namespace adtm {
namespace {

std::mutex g_default_policy_mutex;
FailurePolicy g_default_policy{.max_retries = 0,
                               .backoff_min_spins = 64,
                               .backoff_max_spins = 64 * 1024,
                               .retryable = nullptr,
                               .escalate = nullptr};

}  // namespace

bool default_transient(const std::exception_ptr& ep) noexcept {
  try {
    std::rethrow_exception(ep);
  } catch (const faultsim::SimulatedCrash&) {
    return false;
  } catch (const std::system_error& e) {
    const int v = e.code().value();
    return v == EINTR || v == EAGAIN || v == ENOSPC || v == EBUSY;
  } catch (...) {
    return false;
  }
}

void run_with_policy(const FailurePolicy& policy,
                     const std::function<void()>& fn) {
  Backoff backoff(policy.backoff_min_spins, policy.backoff_max_spins);
  std::uint32_t retries = 0;
  for (;;) {
    std::exception_ptr ep;
    try {
      fn();
      return;
    } catch (...) {
      ep = std::current_exception();
    }
    const bool transient =
        policy.retryable ? policy.retryable(ep) : default_transient(ep);
    // Cooperative reaping (watchdog reap-deferred policy): a deferred op
    // flagged as stalled past its budget stops retrying at its next
    // failure and escalates — composing with poison_on_escalate, which
    // then releases the op's TxLocks by poisoning them.
    const bool reaped = transient && liveness::reap_requested();
    if (reaped) liveness::clear_reap();
    if (transient && !reaped && retries < policy.max_retries) {
      ++retries;
      stats().add(Counter::FailureRetries);
      backoff.pause();
      continue;
    }
    stats().add(Counter::FailureEscalations);
    if (policy.escalate) {
      policy.escalate(ep);
      return;
    }
    std::rethrow_exception(ep);
  }
}

const FailurePolicy& default_failure_policy() noexcept {
  return g_default_policy;
}

void set_default_failure_policy(FailurePolicy policy) {
  std::lock_guard<std::mutex> lk(g_default_policy_mutex);
  g_default_policy = std::move(policy);
}

}  // namespace adtm
