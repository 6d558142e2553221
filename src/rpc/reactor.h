// One event-loop shard of rpc::TcpServer: a thread that owns one
// rpc::ConnectionSet, the connection type the distributed runtime's links
// use too. The set does the socket, epoll, framing and buffer work; the
// reactor keeps request handling, the answers pool workers post back, the
// idle-connection clock, the drain rule and its own counters. N reactors
// listen on one port through SO_REUSEPORT and the kernel spreads incoming
// connections across them; a connection lives its whole life on one
// reactor. Solver work fans out to the shared exec::ThreadPool, whose
// workers post answers back to the reactor that admitted the request.
//
// Locking:
//   mu_        guards the posted-answer queue, plus the drain flag and the
//              set handle that cross-thread Wake calls read. Held briefly
//              by this reactor's thread, by pool workers posting answers
//              and by BeginDrain; nothing else is acquired under it except
//              the server's admission atomic.
//   stats_mu_  leaf mutex guarding the counters and latency histogram.
//              Never held while acquiring anything else, so any thread —
//              including another reactor building an aggregated STATS
//              answer — may snapshot it.

#ifndef CARAT_RPC_REACTOR_H_
#define CARAT_RPC_REACTOR_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rpc/connection_set.h"
#include "rpc/latency_histogram.h"
#include "rpc/tcp_server.h"

namespace carat::rpc {

class Reactor {
 public:
  explicit Reactor(TcpServer* server);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Listens on the server's host at `port` (0: ephemeral; siblings pass
  /// the first reactor's port) and spawns the loop thread.
  bool Start(std::uint16_t port, std::string* error);
  std::uint16_t port() const { return port_; }

  /// Signals the drain: stop accepting and reading, finish admitted
  /// requests, flush, close. Returns immediately; Join() waits.
  void BeginDrain();

  /// Joins the loop thread if running. Callers serialize via the server.
  void Join();

  /// Counter snapshot (leaf mutex only; safe from any thread).
  ServerStats StatsSnapshot() const;

  /// Adds this reactor's latency observations into `*into`.
  void MergeLatency(LatencyHistogram* into) const;

 private:
  using Clock = std::chrono::steady_clock;
  using ConnId = ConnectionSet::ConnId;

  struct Conn {
    std::size_t inflight = 0;
    bool reading = true;  ///< false once the peer stopped or the drain began
    Clock::time_point last_active;
  };

  /// An answer a pool worker hands to the loop thread.
  struct Posted {
    ConnId conn;
    std::string id;
    std::string body;
  };

  void Loop();
  void OnAccept(ConnId conn);
  void OnFrame(ConnId conn, const std::string& id, const std::string& body);
  void OnClose(ConnId conn, const std::string& reason);
  void Deliver(const Posted& posted);
  /// Finishes a connection that takes no more requests once nothing is in
  /// flight on it.
  void Settle(ConnId id, const Conn& conn);
  void Forget(ConnId id);
  void StartDrain();
  /// Finishes connections idle past the timeout; returns the next idle
  /// deadline (time_point::max() when none).
  Clock::time_point SweepIdle();
  void Count(std::uint64_t ServerStats::*counter);
  void PostResponse(ConnId conn, std::string id, std::string body,
                    Clock::time_point enqueued, bool timed_out);

  TcpServer* const server_;
  std::uint16_t port_ = 0;
  std::thread loop_;

  // Loop thread only.
  std::unordered_map<ConnId, Conn> conns_;
  std::size_t outstanding_ = 0;  ///< dispatched, answer not yet delivered
  bool drain_began_ = false;
  std::vector<Posted> delivering_;

  std::mutex mu_;
  std::unique_ptr<ConnectionSet> net_;  ///< reset when the loop ends
  std::vector<Posted> posted_;
  bool draining_ = false;

  mutable std::mutex stats_mu_;  ///< leaf: counters + histogram only
  ServerStats stats_;
  LatencyHistogram latency_;
};

}  // namespace carat::rpc

#endif  // CARAT_RPC_REACTOR_H_
