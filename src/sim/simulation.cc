#include "sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace carat::sim {

namespace {

// Which kernel/site the current thread is executing an event for. Stamps
// the origin of Schedule() calls; {nullptr, -1} outside event execution
// (setup code schedules with the destination's clock and sequence counter,
// which is deterministic because setup runs in program order).
struct ExecContext {
  Kernel* kernel = nullptr;
  int site = -1;
};
thread_local ExecContext tls_exec;

// Kernels alive on this thread, in construction order. A Process spawned
// outside event execution (setup code) belongs to the newest one.
thread_local std::vector<Kernel*> tls_live_kernels;

}  // namespace

Kernel::Kernel(int num_sites) : num_sites_(num_sites) {
  assert(num_sites_ >= 1);
  per_site_ = std::make_unique<PerSite[]>(static_cast<std::size_t>(num_sites_));
  processes_.prev = processes_.next = &processes_;
  tls_live_kernels.push_back(this);
}

Kernel::~Kernel() {
  DestroyProcesses();
  const auto it =
      std::find(tls_live_kernels.begin(), tls_live_kernels.end(), this);
  if (it != tls_live_kernels.end()) tls_live_kernels.erase(it);
}

void Kernel::DestroyProcesses() {
  while (processes_.next != &processes_) {
    internal::ProcessLink* link = processes_.next;
    internal::DetachProcess(link);  // the promise destructor then no-ops
    link->frame.destroy();
  }
}

namespace internal {

void AttachProcess(ProcessLink* link) {
  Kernel* kernel = tls_exec.kernel;
  if (kernel == nullptr) {
    if (tls_live_kernels.empty()) return;
    kernel = tls_live_kernels.back();
  }
  link->kernel = kernel;
  link->prev = &kernel->processes_;
  link->next = kernel->processes_.next;
  link->next->prev = link;
  kernel->processes_.next = link;
}

void DetachProcess(ProcessLink* link) {
  if (link->kernel == nullptr) return;
  link->prev->next = link->next;
  link->next->prev = link->prev;
  link->kernel = nullptr;
}

}  // namespace internal

int Kernel::current_site() const {
  return tls_exec.kernel == this ? tls_exec.site : -1;
}

void Kernel::Schedule(int site, double delay, SmallFn fn) {
  assert(site >= 0 && site < num_sites_);
  assert(delay >= 0.0 && "negative or NaN event delay");  // NaN fails >=
  const bool inside = tls_exec.kernel == this && tls_exec.site >= 0;
  const int origin = inside ? tls_exec.site : site;
  PerSite& ps = per_site_[origin];
  heap_.push_back(Event{ps.clock + delay, site, origin, ps.next_seq++,
                        std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), After);
}

void Kernel::RunUntil(double until) {
  const ExecContext saved = tls_exec;
  while (!heap_.empty() && heap_.front().time <= until) {
    std::pop_heap(heap_.begin(), heap_.end(), After);
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    PerSite& ps = per_site_[ev.site];
    ps.clock = ev.time;
    ++ps.executed;
    tls_exec = ExecContext{this, ev.site};
    ev.fn();
  }
  tls_exec = saved;
  for (int s = 0; s < num_sites_; ++s) {
    if (per_site_[s].clock < until) per_site_[s].clock = until;
  }
}

std::uint64_t Kernel::events_executed() const {
  std::uint64_t total = 0;
  for (int s = 0; s < num_sites_; ++s) total += per_site_[s].executed;
  return total;
}

double Kernel::NextEventTime() const {
  return heap_.empty() ? std::numeric_limits<double>::infinity()
                       : heap_.front().time;
}

}  // namespace carat::sim
