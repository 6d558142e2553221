// Real-time execution for the distributed testbed.
//
// The in-process testbed (carat/testbed.h) runs every site on a virtual-time
// event kernel. A carat_sited process runs its one site on the same kernel,
// driven by the wall clock: RtSiteLoop owns a one-site sim::ShardedKernel
// and an RtClock (`scale` real milliseconds per virtual millisecond), and
// its thread runs every event whose virtual time has come, then sleeps until
// the next event's wall-clock deadline or until another thread posts work.
// A site's code is therefore the testbed's code (txn::Node's TM server, CPU,
// disks, DM pool, journal and lock table, as coroutines), and queueing inside
// a site is exact in virtual time; only the arrival time of a message from
// another thread carries wall-clock jitter.
//
// Threads other than the loop's never touch site state: they Post closures,
// which the loop runs as kernel events at delay 0, so every sim::Process is
// spawned inside event execution and Stop reaches it. The inbox is unbounded
// and Post never waits for the loop, so a mesh reader thread always drains
// its socket, and two sites writing to each other cannot deadlock.

#ifndef CARAT_DIST_RUNTIME_H_
#define CARAT_DIST_RUNTIME_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

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

  static void SleepRealMs(double real_ms) {
    if (real_ms <= 0.0) return;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(real_ms));
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

  /// The site's timeline. Only code running on the loop may use it once the
  /// loop has started.
  sim::SitePort port() { return sim::SitePort{&kernel_, 0}; }
  const RtClock& clock() const { return clock_; }

  /// Starts the loop thread.
  void Start();

  /// Queues `fn` to run on the loop as an event at delay 0, at a virtual
  /// time no earlier than the wall clock's when it was posted. Thread-safe
  /// and never blocks on the loop. Once the loop has stopped, `fn` is
  /// destroyed without running.
  void Post(sim::SmallFn fn);

  /// Posts `fn` and blocks the calling thread, which must not be the
  /// loop's, until it has run. False, with `fn` not run, if the loop
  /// stopped first.
  bool Call(std::function<void()> fn);

  /// Stops the thread, then destroys every process still parked on the
  /// kernel and every closure not yet run: no event runs afterwards.
  /// Idempotent.
  void Stop();

  /// Closures posted but not yet taken by the loop. Thread-safe.
  std::size_t inbox_depth() const;

  /// Kernel events scheduled but not yet run. Loop thread only.
  std::size_t pending_events() const { return kernel_.pending_events(); }

 private:
  void Run();

  RtClock clock_;
  sim::ShardedKernel kernel_;
  mutable std::mutex mu_;  ///< guards inbox_ and stop_
  std::condition_variable cv_;
  std::vector<sim::SmallFn> inbox_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace carat::dist

#endif  // CARAT_DIST_RUNTIME_H_
