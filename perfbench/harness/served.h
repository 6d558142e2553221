// The what-if workloads drive the shipped server from outside: a child
// carat_served process on an ephemeral loopback port, and a closed-loop
// client that keeps one request in flight on each of a few connections
// from a single thread. The client speaks the text framing through
// rpc::Framing, the same Encode/Decode pair the server uses.

#ifndef PERFBENCH_HARNESS_SERVED_H_
#define PERFBENCH_HARNESS_SERVED_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/trace.h"
#include "rpc/framing.h"

namespace perfbench {

/// A running carat_served child. The destructor stops it.
class ServedProcess {
 public:
  /// Spawns `binary --listen 127.0.0.1:0 --jobs J --reactors R` and waits
  /// for the line that names its port. Null with `*error` on failure.
  static std::unique_ptr<ServedProcess> Start(const std::string& binary,
                                              int jobs, int reactors,
                                              std::string* error);
  ~ServedProcess();
  ServedProcess(const ServedProcess&) = delete;
  ServedProcess& operator=(const ServedProcess&) = delete;

  std::uint16_t port() const { return port_; }

  /// The child's peak resident set (VmHWM) in MB; 0 if unreadable.
  double PeakRssMb() const;

  /// SIGTERM (the server drains and exits 0), then waits; SIGKILL if it
  /// does not exit in time. True when the child exited 0. Idempotent.
  bool Stop();

 private:
  ServedProcess(pid_t pid, int err_fd) : pid_(pid), err_fd_(err_fd) {}

  pid_t pid_;
  int err_fd_;
  std::uint16_t port_ = 0;
  bool exited_ok_ = false;
};

/// One client connection, text framing, nonblocking reads.
class Connection {
 public:
  Connection();
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Connect(std::uint16_t port, std::string* error);
  int fd() const { return fd_; }

  /// Frames and writes one request.
  bool Send(const std::string& id, const std::string& body);

  /// Reads what the socket has and appends every whole response to `out`.
  /// False on EOF, a read error or a framing error.
  bool ReadAvailable(std::vector<carat::rpc::Framing::Message>* out,
                     std::string* error);

  /// Lockstep request/response with a deadline. False on timeout or error.
  bool Call(const std::string& id, const std::string& body,
            std::string* response, int timeout_ms = 30'000);

 private:
  int fd_ = -1;
  std::unique_ptr<carat::rpc::Framing> framing_;
  std::string in_;
};

/// Peak resident set (VmHWM) in MB read from a /proc/<pid>/status file;
/// 0 if unreadable.
double PeakRssMb(const std::string& status_path);

/// The server's STATS counters (key=value pairs of the STATS body).
std::map<std::string, double> FetchStats(Connection* conn);

/// Outcome of one closed-loop pass.
struct LoopStats {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  double elapsed_s = 0.0;
  std::string io_error;  ///< set when a connection failed mid-run
};

/// Closed loop over `conns`: each starts with one request in flight and
/// sends its next request only when the previous one is answered, until
/// `seconds` have elapsed; then the requests in flight are drained.
/// `limit` > 0 also stops sending after that many requests.
/// `next(i)` gives the body of request i (ids are the decimal i);
/// `on_response(i, id, body, latency_us)` judges each answer, which the
/// client times from send to the last byte read. Each request is one
/// "rpc.roundtrip" span on `tracer`.
LoopStats ClosedLoop(
    std::vector<Connection*> conns, double seconds, std::uint64_t limit,
    const std::function<std::string(std::uint64_t)>& next,
    const std::function<void(std::uint64_t, const std::string&,
                             const std::string&, double)>& on_response,
    Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SERVED_H_
