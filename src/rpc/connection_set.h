// Framed-message connections for peer-to-peer protocols, all served by the
// one thread that owns them: the distributed testbed's transport.
//
// Listen (127.0.0.1) and Dial add connections; Poll waits in epoll until a
// socket is ready or a deadline passes, then accepts, hands every complete
// frame to the frame handler, flushes queued output and reports connections
// that ended. Nothing blocks: Send writes what the socket takes and queues
// the rest, and a connection whose unsent output passes kMaxOutboundBytes
// fails. So a peer that stops reading costs its own link, never the
// caller's thread, and two processes writing to each other cannot deadlock.
//
// An accepted connection negotiates its framing by its first byte (see
// rpc/framing.h); a dialed one sends 0x00 first and speaks binary. A frame
// body over kMaxFrameBytes ends the connection. Handlers run inside Poll
// and may call Send, Dial and Close, also for their own connection.

#ifndef CARAT_RPC_CONNECTION_SET_H_
#define CARAT_RPC_CONNECTION_SET_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "rpc/framing.h"

namespace carat::rpc {

class ConnectionSet {
 public:
  /// Names one connection for the set's lifetime; ids are never reused, so
  /// a stale id only ever finds nothing. 0 is never an id.
  using ConnId = std::uint64_t;
  using Clock = std::chrono::steady_clock;

  /// One decoded frame, in stream order per connection.
  using FrameHandler = std::function<void(ConnId conn, const std::string& id,
                                          const std::string& body)>;

  /// A connection ended by itself: EOF, a socket error, a failed connect, an
  /// oversized frame, or output over the bound. Called once, from Poll;
  /// Close() reports nothing.
  using CloseHandler =
      std::function<void(ConnId conn, const std::string& reason)>;

  /// The listen address (every process of a run shares one host), on a
  /// kernel-assigned ephemeral port.
  static constexpr const char* kListenHost = "127.0.0.1";
  /// Longest accepted text line or binary frame body.
  static constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;
  /// Most output a connection may hold unsent.
  static constexpr std::size_t kMaxOutboundBytes = std::size_t{4} << 20;

  ConnectionSet(FrameHandler on_frame, CloseHandler on_close);
  ~ConnectionSet();
  ConnectionSet(const ConnectionSet&) = delete;
  ConnectionSet& operator=(const ConnectionSet&) = delete;

  /// Binds kListenHost on an ephemeral port (read it from port()) and
  /// listens. False with a message on any socket failure.
  bool Listen(std::string* error);
  std::uint16_t port() const { return port_; }

  /// Starts a non-blocking connect to a numeric IPv4 `host` ("localhost" is
  /// accepted). Frames sent before it completes are queued; a connect that
  /// fails is reported to the close handler. 0 with `*error` set when no
  /// socket could be made.
  ConnId Dial(const std::string& host, std::uint16_t port,
              std::string* error);

  /// Frames `body` under `id` in the connection's framing (binary ids are
  /// decimal u64s) and writes it without blocking. False for an unknown or
  /// failed connection, and when the frame would put the unsent output over
  /// kMaxOutboundBytes or the write fails: the connection then fails, and
  /// the next Poll reports it.
  bool Send(ConnId conn, const std::string& id, const std::string& body);

  /// Closes `conn` now, dropping its unsent output. Unknown ids are ignored.
  void Close(ConnId conn);

  /// Waits until a socket is ready or `deadline` passes (Clock::time_point::
  /// max() waits without a deadline), then serves every ready socket. A
  /// failure already pending is reported without waiting. False only when
  /// epoll itself fails.
  bool Poll(Clock::time_point deadline);

 private:
  struct Conn {
    int fd = -1;
    bool negotiated = false;  ///< framing known (dialed, or first byte in)
    bool connecting = false;  ///< dialed, connect not yet resolved
    bool want_write = false;  ///< EPOLLOUT registered
    std::unique_ptr<Framing> framing;
    std::string in;
    std::string out;  ///< unsent output
  };

  Conn* Find(ConnId id);
  ConnId Add(int fd, bool dialed);
  void Accept();
  void OnReady(ConnId id, std::uint32_t events);
  /// Reads what the socket holds and dispatches whole frames. False when
  /// the connection ended (and has been failed).
  bool Read(ConnId id);
  /// Writes queued output; registers for EPOLLOUT while some remains. False
  /// when the write failed (and the connection with it).
  bool Flush(ConnId id, Conn* conn);
  void SetWantWrite(ConnId id, Conn* conn, bool want);
  /// Removes the connection and queues its close report.
  void Fail(ConnId id, std::string reason);

  FrameHandler on_frame_;
  CloseHandler on_close_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  ConnId next_id_ = 1;
  std::unordered_map<ConnId, std::unique_ptr<Conn>> conns_;
  std::vector<std::pair<ConnId, std::string>> failed_;  ///< not yet reported
};

}  // namespace carat::rpc

#endif  // CARAT_RPC_CONNECTION_SET_H_
