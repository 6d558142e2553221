// Fire-and-forget coroutine processes for the simulation.
//
// A Process is a detached coroutine: it starts eagerly, owns its own frame,
// and destroys itself when it finishes. Long-running testbed servers are
// written as `Process Server::Run() { for (;;) { ... co_await ...; } }`.
//
// A process that is still suspended when its run ends would never finish, so
// every frame registers with the kernel it was spawned on: the kernel
// executing the current event on this thread, else the most recently
// constructed kernel still alive on this thread. The kernel destroys the
// frames still registered at teardown (Kernel::DestroyProcesses). A Process
// spawned on a thread with no live kernel is not tracked. Frames attach and
// detach only on the kernel's thread, so the list needs no lock.

#ifndef CARAT_SIM_PROCESS_H_
#define CARAT_SIM_PROCESS_H_

#include <coroutine>
#include <exception>

namespace carat::sim {

class Kernel;

namespace internal {

/// Node of a kernel's intrusive list of live Process frames.
struct ProcessLink {
  ProcessLink* prev = nullptr;
  ProcessLink* next = nullptr;
  Kernel* kernel = nullptr;
  std::coroutine_handle<> frame;
};

/// Registers a new frame with the spawning kernel (no-op without one).
void AttachProcess(ProcessLink* link);
/// Unregisters a finished frame (no-op when it was never registered).
void DetachProcess(ProcessLink* link);

}  // namespace internal

/// Detached simulation process. The returned object is just a tag; the
/// coroutine keeps running on the event queue after it is discarded.
struct Process {
  struct promise_type : internal::ProcessLink {
    Process get_return_object() {
      frame = std::coroutine_handle<promise_type>::from_promise(*this);
      internal::AttachProcess(this);
      return {};
    }
    ~promise_type() { internal::DetachProcess(this); }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { std::terminate(); }
  };
};

}  // namespace carat::sim

#endif  // CARAT_SIM_PROCESS_H_
