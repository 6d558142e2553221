// Real-time execution for the distributed testbed.
//
// The in-process testbed (carat/testbed.h) runs every site on a virtual-time
// event kernel. A carat_sited process runs its one site on the same kernel,
// driven by the wall clock: RtSiteLoop owns a one-site sim::Kernel
// and an RtClock (`scale` real milliseconds per virtual millisecond). Run
// executes, on the calling thread, every event whose virtual time has come,
// then sleeps in the process's rpc::ConnectionSet (epoll) until the next
// event's wall-clock deadline or until a socket is ready. A site's code is
// therefore the testbed's code (txn::Node's TM server, CPU, disks, DM pool,
// journal and lock table, as coroutines), and queueing inside a site is
// exact in virtual time; only the arrival time of a message carries
// wall-clock jitter.
//
// A site process has one thread, and it is the loop's. A frame decoded off
// a socket enters the site through Arrive, as a kernel event at the wall
// clock's current virtual time, so every sim::Process is spawned inside
// event execution and Stop reaches it. Writes never block (see
// rpc/connection_set.h), so a peer that stops reading cannot stop the
// loop.

#ifndef CARAT_DIST_RUNTIME_H_
#define CARAT_DIST_RUNTIME_H_

#include <chrono>
#include <cstddef>
#include <functional>

#include "rpc/connection_set.h"
#include "sim/event.h"
#include "sim/simulation.h"

namespace carat::dist {

/// Wall-clock <-> virtual-time conversion for one site process. `scale` is
/// real milliseconds per virtual millisecond (0.1 = ten times faster than
/// the modeled hardware).
class RtClock {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit RtClock(double scale)
      : scale_(scale), start_(std::chrono::steady_clock::now()) {}

  /// Virtual milliseconds elapsed since this clock was created.
  double NowVirtualMs() const {
    const std::chrono::duration<double, std::milli> real =
        std::chrono::steady_clock::now() - start_;
    return real.count() / scale_;
  }

  /// The wall-clock instant at which virtual time reaches `virtual_ms`,
  /// rounded up so that NowVirtualMs() has reached it by then.
  TimePoint WallTime(double virtual_ms) const {
    return start_ + std::chrono::ceil<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            virtual_ms * scale_));
  }

 private:
  double scale_;
  TimePoint start_;
};

/// One site's real-time event loop; see the file comment.
class RtSiteLoop {
 public:
  explicit RtSiteLoop(double scale);
  ~RtSiteLoop() { Stop(); }
  RtSiteLoop(const RtSiteLoop&) = delete;
  RtSiteLoop& operator=(const RtSiteLoop&) = delete;

  /// The site's timeline.
  sim::SitePort port() { return sim::SitePort{&kernel_, 0}; }
  const RtClock& clock() const { return clock_; }

  /// Schedules `fn` as an event at the wall clock's current virtual time:
  /// how work that came off a socket enters the site. Dropped once the loop
  /// has stopped.
  void Arrive(sim::SmallFn fn);

  /// Runs the loop on the calling thread until `done()` holds (checked after
  /// each round), Stop, or a failed wait: a round runs every event whose
  /// virtual time has come, then waits in `net` until the next event's
  /// wall-clock deadline or a ready socket. With `net` null it sleeps
  /// instead, and returns once no event is pending.
  void Run(rpc::ConnectionSet* net, const std::function<bool()>& done);

  /// Destroys every process still parked on the kernel: no event runs
  /// afterwards. Idempotent.
  void Stop();
  bool stopped() const { return stopped_; }

  /// Kernel events scheduled but not yet run.
  std::size_t pending_events() const { return kernel_.pending_events(); }

 private:
  RtClock clock_;
  sim::Kernel kernel_;
  bool stopped_ = false;
};

}  // namespace carat::dist

#endif  // CARAT_DIST_RUNTIME_H_
