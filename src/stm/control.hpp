// Control-flow signals used inside the transaction execution loop.
//
// These are internal exception types thrown by the runtime (never across
// the public API boundary): the atomic() driver catches them, rolls the
// transaction back, and reacts. Using exceptions gives correct unwinding
// of user RAII objects constructed inside the transaction body.
#pragma once

#include <cstdint>
#include <exception>

#include "obs/trace.hpp"

namespace adtm::stm::detail {

// Conflict detected (validation failure, lock-acquire timeout): roll back
// and re-execute after contention-manager backoff. Carries the structured
// cause so the driver's TxAbort trace event and the run summary's abort
// taxonomy record *why*, not just that it happened.
struct ConflictAbort {
  obs::AbortCause cause = obs::AbortCause::ConflictValidation;
};

// HTM-sim footprint exceeded the capacity budget: roll back; counts
// against the hardware retry budget.
struct CapacityAbort {};

// Harris-style retry(): roll back, wait until a location in the read set
// changes, then re-execute. A nonzero deadline (now_ns() units) bounds the
// wait: once it passes, the driver raises stm::RetryTimeout out of the
// atomic() call instead of waiting forever.
struct RetryRequest {
  std::uint64_t deadline_ns = 0;
  // Set when a TxLock waiter parked in place (stm/runtime.hpp, LockWait)
  // already waited and its wait ended in RetryTimeout or DeadlockError:
  // the driver rolls back and raises that instead of waiting again, so
  // the error leaves the outermost atomic() as on the abort path.
  std::exception_ptr ended;
};

// become_irrevocable(): roll back and re-execute in serial mode.
struct SerialRestart {};

// Explicit user abort: roll back and give up (no re-execution).
struct UserAbort {};

}  // namespace adtm::stm::detail
