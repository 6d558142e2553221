// Discrete-event simulation kernel with one timeline per site.
//
// The testbed processes (user TRs, TM servers, DM servers, the commit and
// deadlock machinery) are C++20 coroutines driven by an event heap. Events
// are arbitrary callbacks, so resources and channels can chain work
// (complete one service, start the next) without helper coroutines. Time is
// in milliseconds, matching the model.
//
// The kernel owns one timeline per CARAT *site*: each site has its own
// clock, sequence counter and executed-event count, and an event names the
// site it runs on. All sites share one heap, drained on the thread that
// calls RunUntil. Delivery order is the (time, origin site, origin seq)
// key, never heap insertion order. Parallelism lives across independent
// runs (bench::RunSweep), not inside one.

#ifndef CARAT_SIM_SIMULATION_H_
#define CARAT_SIM_SIMULATION_H_

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event.h"
#include "sim/process.h"

namespace carat::sim {

class Kernel {
 public:
  explicit Kernel(int num_sites);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;
  ~Kernel();

  int num_sites() const { return num_sites_; }

  /// Current simulated time (ms) on `site`'s timeline. A site's clock is the
  /// time of the last event it ran, aligned to `until` after RunUntil.
  double now(int site) const { return per_site_[site].clock; }

  /// Schedules `fn` on `site`'s timeline after `delay` ms (>= 0, non-NaN;
  /// enforced). When called from inside an event, the sending site's clock
  /// and sequence counter stamp the event.
  void Schedule(int site, double delay, SmallFn fn);

  /// Schedules a coroutine resumption on `site`'s timeline.
  void Schedule(int site, double delay, std::coroutine_handle<> handle) {
    Schedule(site, delay, SmallFn([handle]() { handle.resume(); }));
  }

  /// Runs events on the calling thread until the heap empties or passes
  /// `until`. Events scheduled beyond `until` remain pending.
  void RunUntil(double until);

  /// Total events executed so far, summed over sites.
  std::uint64_t events_executed() const;

  /// Time of the earliest pending event on any site, +infinity when none is
  /// pending; a real-time loop sleeps until it. Events scheduled but not
  /// yet run.
  double NextEventTime() const;
  std::size_t pending_events() const { return heap_.size(); }

  /// Site of the event currently executing on this thread in this kernel,
  /// or -1 when called from outside event execution.
  int current_site() const;

  /// Destroys the frame of every Process spawned on this kernel that has not
  /// finished (sim/process.h), running its local destructors and those of
  /// the Tasks it awaits. No event may run afterwards: pending events may
  /// still name the destroyed frames. The destructor calls this; an owner
  /// whose processes reference objects that die before the kernel calls it
  /// first, while those objects are alive.
  void DestroyProcesses();

 private:
  friend void internal::AttachProcess(internal::ProcessLink* link);

  struct Event {
    double time;
    std::int32_t site;         // destination timeline
    std::int32_t origin_site;  // stamping site (delivery-order key)
    std::uint64_t origin_seq;
    SmallFn fn;
  };
  // Min-heap order: (time, origin_site, origin_seq). The pair
  // (origin_site, origin_seq) is unique, so the order is total and the pop
  // sequence is independent of heap insertion order.
  static bool After(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    if (a.origin_site != b.origin_site) return a.origin_site > b.origin_site;
    return a.origin_seq > b.origin_seq;
  }

  struct PerSite {
    double clock = 0.0;
    std::uint64_t next_seq = 0;
    std::uint64_t executed = 0;
  };

  const int num_sites_;
  std::unique_ptr<PerSite[]> per_site_;
  std::vector<Event> heap_;  // binary heap ordered by After()
  // Live Process frames: a circular list through the sentinel.
  internal::ProcessLink processes_;
};

/// Value handle onto one site's timeline: everything a site-local process or
/// resource needs from the kernel. Copyable, 16 bytes.
struct SitePort {
  Kernel* kernel = nullptr;
  int site = 0;

  double now() const { return kernel->now(site); }
  void Schedule(double delay, SmallFn fn) const {
    kernel->Schedule(site, delay, std::move(fn));
  }
  void Schedule(double delay, std::coroutine_handle<> handle) const {
    kernel->Schedule(site, delay, handle);
  }
};

/// Awaitable: suspend the current process for `delay` ms on its own site's
/// timeline (zero/negative delays complete inline; same-site only -- site
/// hops go through net::Network, which always suspends).
///   co_await Delay{sim, 5.0};
struct Delay {
  SitePort sim;
  double delay_ms;

  bool await_ready() const noexcept { return delay_ms <= 0.0; }
  void await_suspend(std::coroutine_handle<> h) const {
    sim.Schedule(delay_ms, h);
  }
  void await_resume() const noexcept {}
};

/// Single-site facade over Kernel preserving the original serial API.
/// Converts implicitly to its site-0 SitePort, so the primitives (Delay,
/// FcfsResource, FifoMutex, ...) accept it directly.
class Simulation : public Kernel {
 public:
  Simulation() : Kernel(/*num_sites=*/1) {}

  double now() const { return Kernel::now(0); }

  void Schedule(double delay, SmallFn fn) {
    Kernel::Schedule(0, delay, std::move(fn));
  }
  void Schedule(double delay, std::coroutine_handle<> handle) {
    Kernel::Schedule(0, delay, handle);
  }

  operator SitePort() { return SitePort{this, 0}; }  // NOLINT
};

}  // namespace carat::sim

#endif  // CARAT_SIM_SIMULATION_H_
