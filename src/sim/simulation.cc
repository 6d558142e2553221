#include "sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <thread>
#include <utility>

namespace carat::sim {

namespace {

// Which kernel/site the current thread is executing an event for. Stamps
// the origin of Schedule() calls; {nullptr, -1} outside event execution
// (setup code on the driving thread schedules with the destination's clock
// and sequence counter, which is deterministic because setup runs in
// program order before any shard thread exists).
struct ExecContext {
  ShardedKernel* kernel = nullptr;
  int site = -1;
};
thread_local ExecContext tls_exec;

// Kernels alive on this thread, in construction order. A Process spawned
// outside event execution (setup code) belongs to the newest one.
thread_local std::vector<ShardedKernel*> tls_live_kernels;

}  // namespace

ShardedKernel::ShardedKernel(int num_sites, int num_shards)
    : num_sites_(num_sites), num_shards_(num_shards) {
  assert(num_sites_ >= 1);
  assert(num_shards_ >= 1 && num_shards_ <= num_sites_);
  per_site_ = std::make_unique<PerSite[]>(static_cast<std::size_t>(num_sites_));
  shards_ = std::make_unique<Shard[]>(static_cast<std::size_t>(num_shards_));
  processes_.prev = processes_.next = &processes_;
  tls_live_kernels.push_back(this);
}

ShardedKernel::~ShardedKernel() {
  DestroyProcesses();
  const auto it =
      std::find(tls_live_kernels.begin(), tls_live_kernels.end(), this);
  if (it != tls_live_kernels.end()) tls_live_kernels.erase(it);
}

void ShardedKernel::DestroyProcesses() {
  for (;;) {
    internal::ProcessLink* link = nullptr;
    {
      const std::scoped_lock lock(processes_mu_);
      if (processes_.next == &processes_) return;
      link = processes_.next;
      link->prev->next = link->next;
      link->next->prev = link->prev;
      link->kernel = nullptr;  // the promise destructor must not unlink again
    }
    link->frame.destroy();
  }
}

namespace internal {

void AttachProcess(ProcessLink* link) {
  ShardedKernel* kernel = tls_exec.kernel;
  if (kernel == nullptr) {
    if (tls_live_kernels.empty()) return;
    kernel = tls_live_kernels.back();
  }
  const std::scoped_lock lock(kernel->processes_mu_);
  link->kernel = kernel;
  link->prev = &kernel->processes_;
  link->next = kernel->processes_.next;
  link->next->prev = link;
  kernel->processes_.next = link;
}

void DetachProcess(ProcessLink* link) {
  ShardedKernel* kernel = link->kernel;
  if (kernel == nullptr) return;
  const std::scoped_lock lock(kernel->processes_mu_);
  link->prev->next = link->next;
  link->next->prev = link->prev;
  link->kernel = nullptr;
}

}  // namespace internal

int ShardedKernel::current_site() const {
  return tls_exec.kernel == this ? tls_exec.site : -1;
}

void ShardedKernel::Schedule(int site, double delay, SmallFn fn) {
  assert(site >= 0 && site < num_sites_);
  assert(delay >= 0.0 && "negative or NaN event delay");  // NaN fails >=
  const bool inside = tls_exec.kernel == this && tls_exec.site >= 0;
  const int origin = inside ? tls_exec.site : site;
  // Shards never exchange events, so only a one-shard kernel may send
  // across sites. The check depends only on the workload, not on which
  // sites share a shard, so it trips (or not) identically at every count.
  assert((origin == site || num_shards_ == 1) &&
         "cross-site event in a multi-shard kernel");
  PerSite& ps = per_site_[origin];
  std::vector<Event>& heap = shards_[site % num_shards_].heap;
  heap.push_back(Event{ps.clock + delay, site, origin, ps.next_seq++,
                       std::move(fn)});
  std::push_heap(heap.begin(), heap.end(), After);
}

void ShardedKernel::RunShard(int shard_index, double until) {
  const ExecContext saved = tls_exec;
  std::vector<Event>& heap = shards_[shard_index].heap;
  while (!heap.empty() && heap.front().time <= until) {
    std::pop_heap(heap.begin(), heap.end(), After);
    Event ev = std::move(heap.back());
    heap.pop_back();
    PerSite& ps = per_site_[ev.site];
    ps.clock = ev.time;
    ++ps.executed;
    tls_exec = ExecContext{this, ev.site};
    ev.fn();
  }
  tls_exec = saved;
}

void ShardedKernel::RunUntil(double until) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(num_shards_ - 1));
  for (int s = 1; s < num_shards_; ++s) {
    workers.emplace_back([this, s, until]() { RunShard(s, until); });
  }
  RunShard(0, until);
  for (std::thread& t : workers) t.join();
  for (int s = 0; s < num_sites_; ++s) {
    if (per_site_[s].clock < until) per_site_[s].clock = until;
  }
}

std::uint64_t ShardedKernel::events_executed() const {
  std::uint64_t total = 0;
  for (int s = 0; s < num_sites_; ++s) total += per_site_[s].executed;
  return total;
}

double ShardedKernel::NextEventTime() const {
  double next = std::numeric_limits<double>::infinity();
  for (int s = 0; s < num_shards_; ++s) {
    const std::vector<Event>& heap = shards_[s].heap;
    if (!heap.empty()) next = std::min(next, heap.front().time);
  }
  return next;
}

std::size_t ShardedKernel::pending_events() const {
  std::size_t total = 0;
  for (int s = 0; s < num_shards_; ++s) total += shards_[s].heap.size();
  return total;
}

}  // namespace carat::sim
