#include "liveness/contention.hpp"

namespace adtm::liveness {

ContentionManager& contention() noexcept {
  static ContentionManager manager;
  // Thread ids are recycled: a thread that exits mid-streak must not hand
  // that streak to the next thread given its slot, which would escalate
  // to serial without having lost anything.
  static const bool hook = [] {
    register_thread_exit_hook(
        [](std::uint32_t tid) { contention().forget_streak_of(tid); });
    return true;
  }();
  (void)hook;
  return manager;
}

}  // namespace adtm::liveness
