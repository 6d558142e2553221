// Single-consumer channels for message passing between testbed processes.

#ifndef CARAT_SIM_CHANNEL_H_
#define CARAT_SIM_CHANNEL_H_

#include <cassert>
#include <coroutine>
#include <deque>
#include <utility>

#include "sim/simulation.h"

namespace carat::sim {

/// Unbounded FIFO queue with at most one waiting receiver. Senders never
/// block; a waiting receiver is resumed through the event queue at the
/// current time, preserving deterministic ordering.
template <typename T>
class Channel {
 public:
  explicit Channel(SitePort sim) : sim_(sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueues a message, waking the receiver if one is parked.
  void Send(T value) {
    queue_.push_back(std::move(value));
    if (receiver_) {
      const std::coroutine_handle<> h = receiver_;
      receiver_ = nullptr;
      sim_.Schedule(0.0, h);
    }
  }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

  /// Awaitable returned by Receive().
  struct Receiver {
    Channel& channel;

    bool await_ready() const noexcept { return !channel.queue_.empty(); }
    void await_suspend(std::coroutine_handle<> h) {
      assert(channel.receiver_ == nullptr && "channel already has a receiver");
      channel.receiver_ = h;
    }
    T await_resume() {
      assert(!channel.queue_.empty());
      T value = std::move(channel.queue_.front());
      channel.queue_.pop_front();
      return value;
    }
  };

  /// co_await chan.Receive() yields the next message, waiting if necessary.
  Receiver Receive() { return Receiver{*this}; }

 private:
  SitePort sim_;
  std::deque<T> queue_;
  std::coroutine_handle<> receiver_ = nullptr;
};

}  // namespace carat::sim

#endif  // CARAT_SIM_CHANNEL_H_
