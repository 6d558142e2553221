// Framed-message connections, all served by the one thread that owns them:
// the one connection type of the distributed testbed's links and of the
// what-if server's reactors (rpc::Reactor).
//
// Listen and Dial add connections; Poll waits in epoll until a socket is
// ready, Wake is called or a deadline passes, then accepts, hands every
// complete frame to the frame handler, flushes queued output and reports
// connections that ended. Nothing blocks: Send writes what the socket takes
// and queues the rest, and a connection whose unsent output passes
// kMaxOutboundBytes fails. So a peer that stops reading costs its own link,
// never the caller's thread, and two processes writing to each other cannot
// deadlock.
//
// An accepted connection negotiates its framing by its first byte (see
// rpc/framing.h); a dialed one sends 0x00 first and speaks binary. A frame
// body over the set's frame bound is a bad frame.
//
// How a connection ends:
//   - Peer EOF: reading stops and the close handler is told (kClosedByPeer).
//     The peer may still read, so the connection stays open for output
//     until the owner calls Close or Finish.
//   - A bad frame: the close handler is told (the decoder's message) while
//     the connection can still be written. Unless the handler calls Finish,
//     the set closes the connection when the handler returns.
//   - A socket error, a failed connect or output over the bound: the set
//     closes the connection, then tells the close handler.
// Close drops unsent output; Finish stops reading and closes once the output
// is written. After either, nothing more is reported for the connection.
//
// Handlers run inside Poll and may call Send, Dial, Close and Finish, also
// for their own connection. Wake is the only call that is safe from another
// thread.

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

  /// A connection stopped being read by itself (see the file comment for
  /// what the set does with it next). Called once, from Poll.
  using CloseHandler =
      std::function<void(ConnId conn, const std::string& reason)>;

  /// A connection was accepted; called before any of its frames.
  using AcceptHandler = std::function<void(ConnId conn)>;

  /// The dist runtime's listen address (every process of a run shares one
  /// host).
  static constexpr const char* kListenHost = "127.0.0.1";
  /// Default frame bound: longest accepted text line or binary frame body.
  static constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;
  /// Most output a connection may hold unsent.
  static constexpr std::size_t kMaxOutboundBytes = std::size_t{4} << 20;
  /// Close reason of a peer EOF, the one report that leaves the connection
  /// open for output.
  static constexpr const char* kClosedByPeer = "closed by peer";
  /// Bad-frame reason of a 0x00 hello when binary framing is refused.
  static constexpr const char* kBinaryRefused = "binary framing disabled";

  struct Options {
    /// Longest accepted text line or binary frame body.
    std::size_t max_frame_bytes = kMaxFrameBytes;
    /// When false, an accepted connection's 0x00 hello is a bad frame
    /// (kBinaryRefused) and the connection speaks text.
    bool accept_binary = true;
    AcceptHandler on_accept;  ///< optional
  };

  ConnectionSet(FrameHandler on_frame, CloseHandler on_close);
  ConnectionSet(FrameHandler on_frame, CloseHandler on_close, Options options);
  ~ConnectionSet();
  ConnectionSet(const ConnectionSet&) = delete;
  ConnectionSet& operator=(const ConnectionSet&) = delete;

  /// Binds kListenHost on an ephemeral port and listens.
  bool Listen(std::string* error);
  /// Binds a numeric IPv4 `host` ("localhost" is accepted) on `port` (0:
  /// ephemeral; read it from port()) with SO_REUSEPORT, so sets on other
  /// threads may listen on the same port and the kernel spreads incoming
  /// connections across them. Call at most once. False with a message on
  /// any failure.
  bool Listen(const std::string& host, std::uint16_t port,
              std::string* error);
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

  /// Stops reading `conn` and closes it once its output is written. Unknown
  /// ids are ignored.
  void Finish(ConnId conn);

  /// Open connections, those still writing out after Finish included.
  std::size_t size() const { return conns_.size(); }

  /// Ends the current or next Poll's wait. Safe from any thread.
  void Wake();

  /// Waits until a socket is ready, Wake is called or `deadline` passes
  /// (Clock::time_point::max() waits without a deadline), then serves every
  /// ready socket. A failure already pending is reported without waiting.
  /// False only when epoll itself fails.
  bool Poll(Clock::time_point deadline);

 private:
  struct Conn {
    int fd = -1;
    bool negotiated = false;  ///< framing known (dialed, or first byte in)
    bool connecting = false;  ///< dialed, connect not yet resolved
    bool reading = true;      ///< false after EOF, a bad frame or Finish
    bool finishing = false;   ///< close once `out` is written
    bool told = false;        ///< reported, or let go by the owner
    std::uint32_t events = 0;  ///< current epoll interest
    std::unique_ptr<Framing> framing;
    std::string in;
    std::string out;  ///< unsent output
  };

  Conn* Find(ConnId id);
  ConnId Add(int fd, bool dialed);
  void Accept();
  void OnReady(ConnId id, std::uint32_t events);
  /// Reads what the socket holds and dispatches whole frames.
  void Read(ConnId id, Conn* conn);
  /// Writes queued output, and closes a finishing connection once it is all
  /// out. False when the write failed (and the connection with it).
  bool Flush(ConnId id, Conn* conn);
  /// Registers the interest the connection's state calls for.
  void UpdateInterest(ConnId id, Conn* conn);
  /// Stops reading and tells the close handler, the connection still open.
  void Report(ConnId id, Conn* conn, const std::string& reason);
  /// Removes the connection and queues its close report.
  void Fail(ConnId id, std::string reason);

  FrameHandler on_frame_;
  CloseHandler on_close_;
  const Options options_;
  const int epoll_fd_;
  const int wake_fd_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  ConnId next_id_ = 1;
  std::unordered_map<ConnId, std::unique_ptr<Conn>> conns_;
  std::vector<std::pair<ConnId, std::string>> failed_;  ///< not yet reported
};

}  // namespace carat::rpc

#endif  // CARAT_RPC_CONNECTION_SET_H_
