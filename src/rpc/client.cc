#include "rpc/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace carat::rpc {

namespace {

/// Remaining milliseconds until `deadline`, clamped to >= 0 and rounded up
/// so a sub-millisecond remainder still polls instead of busy-looping.
int RemainingMs(std::chrono::steady_clock::time_point deadline) {
  const auto remaining = std::chrono::duration_cast<std::chrono::microseconds>(
      deadline - std::chrono::steady_clock::now());
  if (remaining.count() <= 0) return 0;
  return static_cast<int>((remaining.count() + 999) / 1000);
}

bool SetBlocking(int fd, bool blocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = blocking ? (flags & ~O_NONBLOCK) : (flags | O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, want) == 0;
}

/// Waits for a nonblocking (or EINTR-interrupted) connect to resolve and
/// checks SO_ERROR. `timeout_ms` <= 0 waits forever.
bool FinishConnect(int fd, int timeout_ms, std::string* error) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int wait_ms = -1;
    if (timeout_ms > 0) {
      wait_ms = RemainingMs(deadline);
      if (wait_ms == 0) {
        *error = "connect: timed out";
        return false;
      }
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      *error = std::string("connect poll: ") + std::strerror(errno);
      return false;
    }
    if (pr == 0) {
      *error = "connect: timed out";
      return false;
    }
    break;
  }
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
    *error = std::string("getsockopt SO_ERROR: ") + std::strerror(errno);
    return false;
  }
  if (so_error != 0) {
    *error = std::string("connect: ") + std::strerror(so_error);
    return false;
  }
  return true;
}

}  // namespace

Client::~Client() { Close(); }

bool Client::Connect(const std::string& host, std::uint16_t port,
                     std::string* error, int recv_timeout_ms) {
  ConnectOptions options;
  options.recv_timeout_ms = recv_timeout_ms;
  return Connect(host, port, error, options);
}

bool Client::Connect(const std::string& host, std::uint16_t port,
                     std::string* error, const ConnectOptions& options) {
  const int attempts = options.connect_attempts < 1 ? 1
                                                    : options.connect_attempts;
  for (int attempt = 0;; ++attempt) {
    if (ConnectOnce(host, port, error, options)) return true;
    if (attempt + 1 >= attempts) return false;
    if (options.reconnect_backoff_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.reconnect_backoff_ms));
    }
  }
}

bool Client::ConnectOnce(const std::string& host, std::uint16_t port,
                         std::string* error, const ConnectOptions& options) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    *error = "not a numeric IPv4 address: '" + host + "'";
    Close();
    return false;
  }

  const bool timed_connect = options.connect_timeout_ms > 0;
  if (timed_connect) SetBlocking(fd_, false);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    // EINPROGRESS is the nonblocking path; EINTR leaves a blocking connect
    // completing asynchronously — both resolve via poll + SO_ERROR.
    if (errno != EINPROGRESS && errno != EINTR) {
      *error = std::string("connect: ") + std::strerror(errno);
      Close();
      return false;
    }
    if (!FinishConnect(fd_, options.connect_timeout_ms, error)) {
      Close();
      return false;
    }
  }
  if (timed_connect) SetBlocking(fd_, true);

  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options.recv_timeout_ms > 0) {
    // Belt only: the real bound is the poll() deadline in FillBuf; this
    // keeps even a direct read() on the fd from hanging forever.
    timeval tv{};
    tv.tv_sec = options.recv_timeout_ms / 1000;
    tv.tv_usec = (options.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  recv_timeout_ms_ = options.recv_timeout_ms;
  kind_ = options.framing;
  framing_ = Framing::Create(kind_);
  if (kind_ == FramingKind::kBinary) {
    if (!SendRaw(std::string(1, kBinaryFramingByte))) {
      *error = "failed to send binary framing negotiation byte";
      Close();
      return false;
    }
  }
  return true;
}

bool Client::SendLine(const std::string& line) {
  if (kind_ == FramingKind::kText) {
    std::string framed = line;
    framed += '\n';
    return SendRaw(framed);
  }
  const std::size_t sep = line.find_first_of(" \t");
  const std::string id = line.substr(0, sep);
  std::string body;
  if (sep != std::string::npos) {
    std::size_t start = line.find_first_not_of(" \t", sep);
    if (start != std::string::npos) body = line.substr(start);
  }
  std::string wire;
  framing_->Encode(id, body, &wire);
  return SendRaw(wire);
}

bool Client::SendRaw(const std::string& bytes) {
  if (fd_ < 0) return false;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool Client::FillBuf(Clock::time_point deadline, bool has_deadline) {
  for (;;) {
    if (has_deadline) {
      const int wait_ms = RemainingMs(deadline);
      if (wait_ms == 0) return false;  // total deadline spent
      pollfd pfd{fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, wait_ms);
      if (pr < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (pr == 0) return false;  // deadline
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
    if (n == 0) return false;  // EOF
    if (errno == EINTR) continue;
    if ((errno == EAGAIN || errno == EWOULDBLOCK) && has_deadline) {
      continue;  // SO_RCVTIMEO fired early; the poll deadline governs
    }
    return false;
  }
}

bool Client::ReadLine(std::string* line) {
  if (fd_ < 0) return false;
  const bool has_deadline = recv_timeout_ms_ > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(recv_timeout_ms_);
  if (kind_ == FramingKind::kText) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buf_, 0, nl);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        buf_.erase(0, nl + 1);
        return true;
      }
      if (!FillBuf(deadline, has_deadline)) return false;
    }
  }
  // Binary framing: surface each frame as "<id> <payload>".
  constexpr std::size_t kMaxClientBody = 1 << 20;
  for (;;) {
    if (pending_pos_ < pending_.size()) {
      const Framing::Message& message = pending_[pending_pos_++];
      *line = message.id;
      *line += ' ';
      *line += message.body;
      if (pending_pos_ == pending_.size()) {
        pending_.clear();
        pending_pos_ = 0;
      }
      return true;
    }
    std::string decode_error;
    if (!framing_->Decode(&buf_, kMaxClientBody, &pending_, &decode_error)) {
      return false;  // malformed frame from the server
    }
    if (!pending_.empty()) continue;
    if (!FillBuf(deadline, has_deadline)) return false;
  }
}

bool Client::Request(const std::string& line, std::string* response) {
  return SendLine(line) && ReadLine(response);
}

void Client::CloseSend() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
  pending_.clear();
  pending_pos_ = 0;
}

}  // namespace carat::rpc
