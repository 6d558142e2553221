// Inter-node message network for the testbed.
//
// The two-node experiments ran on a lightly loaded 10 Mb/s Ethernet, so the
// paper treats the per-message delay alpha as a small constant (and in fact
// neglects it). The network here charges a fixed one-way delay per message
// hop and counts traffic; qn/ethernet.h can supply a contention-aware alpha
// for sensitivity studies.
//
// A hop is also the only way a process changes site: the awaiter always
// suspends and re-schedules the coroutine on the destination site's
// timeline, so the resumed code runs on (and may touch the state of) the
// destination site. Changing site is legal only in a one-shard kernel
// (sim/simulation.h), so every run that sends a message is single-threaded
// and one counter serves.

#ifndef CARAT_NET_NETWORK_H_
#define CARAT_NET_NETWORK_H_

#include <coroutine>
#include <cstdint>
#include <utility>

#include "sim/simulation.h"

namespace carat::net {

/// Message-hop accounting and delay.
class Network {
 public:
  Network(sim::ShardedKernel& kernel, double one_way_delay_ms)
      : kernel_(kernel), delay_ms_(one_way_delay_ms) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  struct HopAwaiter {
    Network& net;
    int dest_site;

    bool await_ready() const noexcept { return false; }  // always switch site
    void await_suspend(std::coroutine_handle<> h) const {
      net.kernel_.Schedule(dest_site, net.delay_ms_, h);
    }
    void await_resume() const noexcept {}
  };

  /// One message hop to `dest_site`: counts the message, delays the caller
  /// by alpha, and resumes it on the destination site's timeline.
  /// Usage: co_await net.Hop(dest);
  HopAwaiter Hop(int dest_site) {
    ++sent_;
    return HopAwaiter{*this, dest_site};
  }

  /// One message hop to `dest_site` that runs `fn` there on arrival: the
  /// same delay, count and event as Hop, for a message whose receiver
  /// starts a new process instead of resuming the sender.
  void Send(int dest_site, sim::SmallFn fn) {
    ++sent_;
    kernel_.Schedule(dest_site, delay_ms_, std::move(fn));
  }

  double one_way_delay_ms() const { return delay_ms_; }

  /// Total messages sent.
  std::uint64_t messages() const { return sent_; }
  void ResetStats() { sent_ = 0; }

 private:
  sim::ShardedKernel& kernel_;
  double delay_ms_;
  std::uint64_t sent_ = 0;
};

}  // namespace carat::net

#endif  // CARAT_NET_NETWORK_H_
