// Tiny blocking client for the rpc::TcpServer wire protocol: connect, send
// request lines, read response lines. Used by the loopback integration
// tests, bench/perf_rpc and as the sample embedding API; it is deliberately
// synchronous — pipelining is achieved by sending many lines before reading
// (the server answers per-completion).
//
// The client speaks either framing (rpc/framing.h). In binary mode the
// SendLine/ReadLine API is preserved: the first whitespace token of an
// outgoing line becomes the frame id (it must be the id's decimal digits)
// and incoming frames are surfaced as "<id> <payload>" lines — so callers,
// tests and benchmarks share one code path across framings and responses
// compare byte-identically.
//
// Robustness: connect() honours a timeout (nonblocking connect + poll),
// reads honour a *total* receive deadline via poll(POLLIN) — a server that
// drips one byte per interval cannot wedge the caller the way a plain
// per-read SO_RCVTIMEO would allow — and EINTR is retried everywhere.
//
// Not thread-safe: one Client per thread.

#ifndef CARAT_RPC_CLIENT_H_
#define CARAT_RPC_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rpc/framing.h"

namespace carat::rpc {

class Client {
 public:
  struct ConnectOptions {
    /// > 0 bounds the *total* wall-clock time a ReadLine may spend waiting,
    /// regardless of how the server paces its bytes. 0 waits forever.
    int recv_timeout_ms = 0;
    /// > 0 bounds connect(); 0 uses the OS default (blocking connect).
    int connect_timeout_ms = 0;
    /// kBinary sends the 0x00 negotiation byte immediately after connect.
    FramingKind framing = FramingKind::kText;
    /// Total connect attempts (>= 1). Attempts past the first wait
    /// `reconnect_backoff_ms` between tries, so a caller can survive a peer
    /// that is slow to bind its listen socket (a freshly spawned site
    /// process, a restarting server). Default: a single attempt — the
    /// pre-existing fail-fast behaviour.
    int connect_attempts = 1;
    /// Pause between connect attempts (ms); only meaningful with
    /// connect_attempts > 1.
    int reconnect_backoff_ms = 100;
  };

  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to a numeric IPv4 `host` ("localhost" is accepted) and sets
  /// TCP_NODELAY. With connect_attempts > 1, failed attempts retry after
  /// `reconnect_backoff_ms` until the attempt budget is spent; `*error`
  /// reports the last failure.
  bool Connect(const std::string& host, std::uint16_t port, std::string* error,
               const ConnectOptions& options);

  /// Legacy convenience: text framing, no connect timeout.
  bool Connect(const std::string& host, std::uint16_t port, std::string* error,
               int recv_timeout_ms = 0);

  /// Sends one request. Text framing writes `line` plus a newline; binary
  /// framing takes the first whitespace token as the frame id (decimal,
  /// else id 0) and the rest as the payload. False on any write error.
  bool SendLine(const std::string& line);

  /// Writes `bytes` exactly as given (no framing applied) — used by tests
  /// to produce torn, malformed and oversized frames.
  bool SendRaw(const std::string& bytes);

  /// Reads the next response as a line: the raw line in text framing
  /// (newline stripped), "<id> <payload>" in binary framing. False on EOF,
  /// the receive deadline expiring, or a read error.
  bool ReadLine(std::string* line);

  /// SendLine + ReadLine — the lockstep convenience path.
  bool Request(const std::string& line, std::string* response);

  /// Closes the write side only, signalling EOF while responses can still
  /// be read (used to exercise the server's torn-frame/drain paths).
  void CloseSend();

  void Close();

  bool connected() const { return fd_ >= 0; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One connect attempt (the pre-backoff Connect body).
  bool ConnectOnce(const std::string& host, std::uint16_t port,
                   std::string* error, const ConnectOptions& options);

  /// Blocks until at least one more byte is appended to buf_. False on
  /// EOF, error, or (when `has_deadline`) the deadline passing.
  bool FillBuf(Clock::time_point deadline, bool has_deadline);

  int fd_ = -1;
  FramingKind kind_ = FramingKind::kText;
  std::unique_ptr<Framing> framing_;
  int recv_timeout_ms_ = 0;
  std::string buf_;
  std::vector<Framing::Message> pending_;  ///< decoded, not yet returned
  std::size_t pending_pos_ = 0;
};

}  // namespace carat::rpc

#endif  // CARAT_RPC_CLIENT_H_
