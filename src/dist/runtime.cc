#include "dist/runtime.h"

#include <cmath>
#include <future>
#include <utility>

namespace carat::dist {

RtSiteLoop::RtSiteLoop(double scale)
    : clock_(scale), kernel_(/*num_sites=*/1, /*num_shards=*/1) {}

void RtSiteLoop::Start() { thread_ = std::thread([this] { Run(); }); }

void RtSiteLoop::Post(sim::SmallFn fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    inbox_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

bool RtSiteLoop::Call(std::function<void()> fn) {
  std::promise<void> done;
  std::future<void> ran = done.get_future();
  // A closure dropped by Stop destroys its promise unset, which wakes us.
  Post([fn = std::move(fn), done = std::move(done)]() mutable {
    fn();
    done.set_value();
  });
  try {
    ran.get();
    return true;
  } catch (const std::future_error&) {
    return false;
  }
}

void RtSiteLoop::Stop() {
  std::vector<sim::SmallFn> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    dropped.swap(inbox_);
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  kernel_.DestroyProcesses();
}

std::size_t RtSiteLoop::inbox_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inbox_.size();
}

void RtSiteLoop::Run() {
  std::vector<sim::SmallFn> posted;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    posted.swap(inbox_);
    lock.unlock();
    // The clock is read after the inbox is taken, so a post runs no earlier
    // (in virtual time) than it was made. Events that came due run first, in
    // virtual-time order; then the posts, at the current virtual time.
    const double now = clock_.NowVirtualMs();
    kernel_.RunUntil(now);
    for (sim::SmallFn& fn : posted) kernel_.Schedule(0, 0.0, std::move(fn));
    posted.clear();
    kernel_.RunUntil(now);
    const double next = kernel_.NextEventTime();
    lock.lock();
    const auto woken = [this] { return stop_ || !inbox_.empty(); };
    if (std::isinf(next)) {
      cv_.wait(lock, woken);
    } else {
      cv_.wait_until(lock, clock_.WallTime(next), woken);
    }
  }
}

}  // namespace carat::dist
