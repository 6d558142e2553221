// Network serving front-end for the what-if solver: an epoll-based,
// multi-reactor TCP server speaking the newline-delimited text protocol
// (default) or the negotiated length-prefixed binary protocol over plain
// POSIX sockets (no third-party dependencies). See rpc/framing.h for the
// exact bytes of both framings.
//
// Text wire protocol — one request per line, one response line per request:
//
//   request:   <id> <workload> <n> [key=value ...] [deadline_ms=N]
//              <id> STATS
//   response:  <id> <result line>          (serve::FormatResult bytes)
//              <id> BUSY                   (admission queue full)
//              <id> TIMEOUT                (deadline_ms elapsed)
//              <id> ERROR <message>        (malformed request)
//              <id> STATS <counters>
//
// `<id>` is an opaque client-chosen token (no whitespace, <= 64 bytes)
// echoed on the response, so clients may pipeline requests and match
// answers as they complete — responses are written per-completion, not in
// request order. A connection whose first byte is 0x00 switches to binary
// framing (u32 len | u64 id | payload, in both directions); the payload
// bytes are exactly the text protocol's body, so both framings answer
// byte-identical payloads for the same query stream. The query grammar is
// the one tools/carat_serve reads from stdin (serve::ParseQuery), and
// serve::FormatResult is the single source of result bytes, so the same
// query produces byte-identical result lines on every front-end.
//
// Architecture: `--reactors N` event-loop threads (rpc::Reactor), each
// owning one rpc::ConnectionSet (the connection type the distributed
// runtime uses too) with its own epoll instance and connections. Sharding
// is by SO_REUSEPORT: every reactor binds its own listen socket on the
// shared port and the kernel spreads incoming connections across them. A
// connection lives its whole life on one reactor.
//
// Hardening, in the way an inference front-end would be hardened:
//   - admission control: at most `max_inflight` admitted-but-unanswered
//     requests across all reactors; past that a request is answered `BUSY`
//     immediately instead of buffering without bound;
//   - per-request deadlines: a request whose `deadline_ms` elapses while it
//     waits in the dispatch queue answers `TIMEOUT` without occupying a
//     solver thread (and one that finishes solving past its deadline also
//     answers `TIMEOUT`);
//   - idle-connection timeouts: connections with no traffic and nothing in
//     flight for `idle_timeout_ms` are closed;
//   - bounded output: a connection whose unsent answers pass
//     ConnectionSet::kMaxOutboundBytes (its client stopped reading) is
//     closed, and the other connections are served on;
//   - oversized frames (a text line or binary payload longer than
//     `max_line_bytes`, or a malformed binary length) are answered with an
//     ERROR and the connection is closed; torn frames (EOF mid-frame) are
//     discarded without crashing;
//   - graceful drain: Shutdown() stops accepting and reading on every
//     reactor, lets every admitted request finish, flushes all responses,
//     then closes.
//
// Threading: each reactor thread owns its sockets' I/O; admitted requests
// are dispatched to the borrowed exec::ThreadPool, whose workers solve
// synchronously through serve::SolverService::SolveSync, queue the answer
// for the owning reactor and wake it (ConnectionSet::Wake). Counters and
// histograms live behind per-reactor leaf mutexes so STATS can aggregate
// across reactors from any reactor thread without lock cycles. See
// DESIGN.md §9.

#ifndef CARAT_RPC_TCP_SERVER_H_
#define CARAT_RPC_TCP_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "rpc/latency_histogram.h"
#include "serve/query.h"
#include "serve/solver_service.h"

namespace carat::rpc {

class Reactor;

/// Monotonic counters; TcpServer::stats() returns the aggregate across
/// reactors, TcpServer::ReactorStats() the per-reactor breakdown.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t active_connections = 0;  ///< gauge, not a counter
  std::uint64_t requests_submitted = 0;  ///< admitted into the dispatch queue
  std::uint64_t requests_completed = 0;  ///< answered with a result line
  std::uint64_t requests_rejected = 0;   ///< answered BUSY
  std::uint64_t requests_timed_out = 0;  ///< answered TIMEOUT
  std::uint64_t parse_errors = 0;        ///< answered ERROR
  std::uint64_t frames_oversized = 0;    ///< dropped + connection closed
  std::uint64_t idle_disconnects = 0;
};

class TcpServer {
 public:
  struct Options {
    /// Numeric IPv4 listen address ("0.0.0.0" for all interfaces;
    /// "localhost" is accepted as an alias for 127.0.0.1).
    std::string host = "127.0.0.1";
    /// 0 binds an ephemeral port; read the outcome from port().
    std::uint16_t port = 0;
    /// The solving service answering queries. Borrowed, required.
    serve::SolverService* service = nullptr;
    /// Dispatch + solver workers. Borrowed, required. Workers solve through
    /// SolverService::SolveSync, so the pool's FIFO queue is the dispatch
    /// queue and its size is the service's solve concurrency.
    exec::ThreadPool* pool = nullptr;
    /// Event-loop threads. Each reactor owns an epoll instance and its own
    /// SO_REUSEPORT listen socket on the shared port.
    std::size_t reactors = 1;
    /// Admission bound: admitted-but-unanswered requests (across all
    /// reactors) past this answer BUSY. Must be >= 1.
    std::size_t max_inflight = 256;
    /// Close connections idle (no traffic, nothing in flight) longer than
    /// this; 0 disables.
    int idle_timeout_ms = 0;
    /// Longest accepted request line / binary payload (excluding framing).
    std::size_t max_line_bytes = 4096;
    /// Accept the 0x00 binary-framing negotiation byte. When false a
    /// binary hello is answered with a text ERROR and the connection is
    /// closed (strict text-only deployments: carat_served --framing=text).
    bool enable_binary_framing = true;
  };

  explicit TcpServer(Options options);

  /// Shuts down gracefully if still running.
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens and starts the reactor threads. Returns false with a
  /// message on any socket-layer failure. Call at most once.
  bool Start(std::string* error);

  /// The bound port (useful with Options::port == 0). Valid after Start.
  std::uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting connections and reading requests on
  /// every reactor, finish every admitted request, flush all responses,
  /// close. Blocks until all reactor threads have exited. Idempotent and
  /// callable from any thread (including a signal-forwarding thread).
  void Shutdown();

  /// Aggregate counters across all reactors.
  ServerStats stats() const;

  /// Per-reactor counter breakdown, indexed by reactor.
  std::vector<ServerStats> ReactorStats() const;

  /// Service-time percentile (admission to response) in milliseconds,
  /// over the merged per-reactor histograms.
  double LatencyPercentileMs(double percentile) const;

  const Options& options() const { return options_; }

 private:
  friend class Reactor;

  /// Admission check shared by all reactors: reserves one in-flight slot,
  /// or returns false when the global bound is reached.
  bool TryAdmit();
  void ReleaseAdmission();

  /// The body (without the request id) of a STATS response: aggregate
  /// counters, service counters, merged percentiles, and the per-reactor
  /// breakdown. Touches only per-reactor leaf stats mutexes and the
  /// service mutex, so any reactor thread may call it.
  std::string BuildStatsBody() const;

  Options options_;
  std::uint16_t port_ = 0;
  bool started_ = false;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::atomic<std::size_t> inflight_{0};
  std::mutex join_mu_;  ///< serializes the Shutdown join
};

}  // namespace carat::rpc

#endif  // CARAT_RPC_TCP_SERVER_H_
