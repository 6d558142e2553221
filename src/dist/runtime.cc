#include "dist/runtime.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

namespace carat::dist {

RtSiteLoop::RtSiteLoop(double scale)
    : clock_(scale), kernel_(/*num_sites=*/1) {}

void RtSiteLoop::Arrive(sim::SmallFn fn) {
  if (stopped_) return;
  // Stamped with the wall clock's virtual time, not the kernel's (which
  // stands where the last round left it), so work runs no earlier in
  // virtual time than it arrived.
  kernel_.Schedule(0, std::max(0.0, clock_.NowVirtualMs() - kernel_.now(0)),
                   std::move(fn));
}

void RtSiteLoop::Run(rpc::ConnectionSet* net,
                     const std::function<bool()>& done) {
  while (!stopped_) {
    kernel_.RunUntil(clock_.NowVirtualMs());
    if (done()) return;
    const double next = kernel_.NextEventTime();
    if (net != nullptr) {
      if (!net->Poll(std::isinf(next)
                         ? rpc::ConnectionSet::Clock::time_point::max()
                         : clock_.WallTime(next))) {
        return;  // epoll failed: the loop can no longer wait
      }
    } else if (std::isinf(next)) {
      return;
    } else {
      std::this_thread::sleep_until(clock_.WallTime(next));
    }
  }
}

void RtSiteLoop::Stop() {
  stopped_ = true;
  kernel_.DestroyProcesses();
}

}  // namespace carat::dist
