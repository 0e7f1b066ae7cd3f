// Runtime configuration for the adtm software TM.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/runtime_config.hpp"

namespace adtm::stm {

struct Config {
  // STM backend by id ("tl2", "eager", "cgl", "htmsim", "norec", "2pl")
  // or display name. When empty, ADTM_ALGO (adtm::RuntimeConfig::algo)
  // fills in, then the TL2 default — the env knob does not override an
  // explicit selection. Unknown names make init() throw.
  std::string backend;

  // Attempts before a transaction escalates to serial-irrevocable mode
  // (GCC libitm defaults: 100 for software, 2 for hardware).
  std::uint32_t serialize_after = 100;

  // HTMSim: attempts before falling back to the serial gate.
  std::uint32_t htm_retries = 2;

  // HTMSim: maximum footprint (distinct ownership records touched, which
  // at line granularity approximates cache lines) before a CAPACITY abort.
  // 512 lines = a 32 KiB L1 write-set budget, TSX-class.
  std::size_t htm_capacity = 512;

  // Whether writer commits quiesce (wait for all concurrently active
  // transactions) for privatization safety. STM algorithms only; HTMSim
  // models strong isolation and CGL is trivially safe.
  bool quiescence = true;

  // Bounded spin iterations when a read/write encounters a locked orec
  // before conflict-aborting (ignored by HTMSim, which aborts immediately).
  std::uint32_t lock_spin_limit = 128;

  // retry() strategy. true (default): wait until a read-set location may
  // have changed before re-executing. false: abort and immediately
  // re-execute with randomized backoff — the paper's own workaround
  // implementation (§4.2), whose cost it measures in Figure 2 ("aborting
  // and immediately retrying, instead of de-scheduling the transaction").
  // With it on, a TxLock waiter whose attempt has nothing visible to
  // other threads waits in place instead of aborting (stm/runtime.hpp,
  // LockWait); with it off, every TxLock wait aborts and re-executes.
  bool retry_wait = true;

  // Starvation escalation (liveness layer): a thread whose conflict-abort
  // streak *across transactions* reaches this count runs its next
  // transaction in serial-irrevocable mode, where it cannot lose. 0
  // disables it (the per-call serialize_after bound still applies).
  // Overridable via ADTM_STARVATION_THRESHOLD.
  std::uint32_t starvation_threshold = default_starvation_threshold();

  static std::uint32_t default_starvation_threshold() noexcept {
    return runtime_config().starvation_threshold;
  }
};

}  // namespace adtm::stm
