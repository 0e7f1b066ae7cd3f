// Failure policy for deferred operations.
//
// A deferred operation runs *after* its transaction committed, so a failure
// cannot abort anything — the only honest options are: retry (transient
// errors, bounded, with the contention-management backoff), escalate to a
// handler, or propagate so the owner can poison itself and make waiters
// fail fast instead of hanging. Kuznetsov & Ravi's critique of unbounded
// progress claims (PAPERS.md) is why the retry budget is always finite:
// after max_retries the failure *will* surface.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>

namespace adtm {

struct FailurePolicy {
  // Retries allowed after the first failure (0 = fail on first error).
  std::uint32_t max_retries = 8;

  // Backoff window between retries (see common/backoff.hpp).
  std::uint32_t backoff_min_spins = 64;
  std::uint32_t backoff_max_spins = 64 * 1024;

  // Classify an in-flight exception as transient (retryable). When null,
  // default_transient() is used: std::system_error with EINTR, EAGAIN,
  // ENOSPC or EBUSY. faultsim::SimulatedCrash is never transient.
  std::function<bool(const std::exception_ptr&)> retryable;

  // Invoked when retries are exhausted or the error is permanent. When
  // null the exception propagates to the caller of run_with_policy —
  // for a deferred operation that is the committing thread's atomic()
  // call, *after* every TxLock has been released.
  std::function<void(std::exception_ptr)> escalate;

  // Liveness escalation hook: when true and a deferred operation's failure
  // escalates (retries exhausted or permanent), atomic_defer poisons the
  // TxLock of every listed object *before* releasing it. Subscribers and
  // later acquirers then raise TxLockPoisoned instead of silently touching
  // state the half-run operation may have corrupted. Off by default: most
  // deferred I/O failures leave in-memory state intact.
  bool poison_on_escalate = false;
};

// Default transient classification (see FailurePolicy::retryable).
bool default_transient(const std::exception_ptr& ep) noexcept;

// Run fn under the policy: retry transient failures with exponential
// backoff up to policy.max_retries, then escalate (or rethrow). Updates
// Counter::FailureRetries / Counter::FailureEscalations.
void run_with_policy(const FailurePolicy& policy,
                     const std::function<void()>& fn);

// Process-wide default applied by atomic_defer when no per-operation
// policy is supplied. The shipped default never blind-retries a whole
// deferred operation (max_retries = 0): a deferred op may not be
// idempotent, so retry belongs at the syscall layer inside the op (WAL,
// DurableFile), not around it.
const FailurePolicy& default_failure_policy() noexcept;
void set_default_failure_policy(FailurePolicy policy);

}  // namespace adtm
