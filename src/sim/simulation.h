// Discrete-event simulation kernel, sharded by site.
//
// The testbed processes (user TRs, TM servers, DM servers, the commit and
// deadlock machinery) are C++20 coroutines driven by event heaps. Events are
// arbitrary callbacks, so resources and channels can chain work (complete one
// service, start the next) without helper coroutines. Time is in
// milliseconds, matching the model.
//
// The kernel owns one timeline per CARAT *site* and runs sites on
// `num_shards` OS threads (site -> shard is `site % num_shards`). Shards run
// free: each thread drains its own heap to `until` and never exchanges
// an event with another, so only a one-shard kernel may schedule across
// sites from inside an event (asserted). Delivery order on a heap is the
// (time, origin site, origin seq) key, never heap insertion order, so the
// per-site event sequences are byte-identical at any shard count.

#ifndef CARAT_SIM_SIMULATION_H_
#define CARAT_SIM_SIMULATION_H_

#include <coroutine>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/event.h"
#include "sim/process.h"

namespace carat::sim {

class ShardedKernel {
 public:
  /// `num_shards` (1..num_sites) threads run the sites' timelines.
  ShardedKernel(int num_sites, int num_shards);
  ShardedKernel(const ShardedKernel&) = delete;
  ShardedKernel& operator=(const ShardedKernel&) = delete;
  ~ShardedKernel();

  int num_sites() const { return num_sites_; }
  int num_shards() const { return num_shards_; }

  /// Current simulated time (ms) on `site`'s timeline. Site clocks advance
  /// independently during a run and are aligned to `until` afterwards.
  double now(int site) const { return per_site_[site].clock; }

  /// Schedules `fn` on `site`'s timeline after `delay` ms (>= 0, non-NaN;
  /// enforced). When called from inside an event, the sending site's clock
  /// and sequence counter stamp the event; a send to another site needs a
  /// one-shard kernel (enforced).
  void Schedule(int site, double delay, SmallFn fn);

  /// Schedules a coroutine resumption on `site`'s timeline.
  void Schedule(int site, double delay, std::coroutine_handle<> handle) {
    Schedule(site, delay, SmallFn([handle]() { handle.resume(); }));
  }

  /// Runs events until every heap empties or passes `until`. Events
  /// scheduled beyond `until` remain pending. Spawns `num_shards - 1`
  /// worker threads for the duration of the call; shard 0 runs on the
  /// caller. Serial when num_shards == 1.
  void RunUntil(double until);

  /// Total events executed so far, summed over sites. Identical for the
  /// same seed at any shard count. Not safe to call during RunUntil.
  std::uint64_t events_executed() const;

  /// Time of the earliest pending event on any site, +infinity when none is
  /// pending; a real-time loop sleeps until it. Events scheduled but not
  /// yet run, summed over sites. Neither is safe to call during RunUntil
  /// except from an event running on a one-shard kernel.
  double NextEventTime() const;
  std::size_t pending_events() const;

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
  friend void internal::DetachProcess(internal::ProcessLink* link);

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

  struct alignas(64) PerSite {
    double clock = 0.0;
    std::uint64_t next_seq = 0;
    std::uint64_t executed = 0;
  };

  // Padded so concurrently running shards never share a cache line.
  struct alignas(64) Shard {
    std::vector<Event> heap;  // binary heap ordered by After()
  };

  void RunShard(int shard_index, double until);

  const int num_sites_;
  const int num_shards_;
  std::unique_ptr<PerSite[]> per_site_;
  std::unique_ptr<Shard[]> shards_;
  // Live Process frames: a circular list through the sentinel. Frames
  // attach and detach from any shard thread, hence the mutex.
  std::mutex processes_mu_;
  internal::ProcessLink processes_;
};

/// Value handle onto one site's timeline: everything a site-local process or
/// resource needs from the kernel. Copyable, 16 bytes.
struct SitePort {
  ShardedKernel* kernel = nullptr;
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

/// Single-site, single-shard facade over ShardedKernel preserving the
/// original serial API. Converts implicitly to its site-0 SitePort, so the
/// primitives (Delay, FcfsResource, FifoMutex, ...) accept it directly.
class Simulation : public ShardedKernel {
 public:
  Simulation() : ShardedKernel(/*num_sites=*/1, /*num_shards=*/1) {}

  double now() const { return ShardedKernel::now(0); }

  void Schedule(double delay, SmallFn fn) {
    ShardedKernel::Schedule(0, delay, std::move(fn));
  }
  void Schedule(double delay, std::coroutine_handle<> handle) {
    ShardedKernel::Schedule(0, delay, handle);
  }

  operator SitePort() { return SitePort{this, 0}; }  // NOLINT
};

}  // namespace carat::sim

#endif  // CARAT_SIM_SIMULATION_H_
