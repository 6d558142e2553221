#include "rpc/connection_set.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

namespace carat::rpc {

namespace {

// epoll tags besides connection ids, which start at 1.
constexpr ConnectionSet::ConnId kListenId = 0;
constexpr ConnectionSet::ConnId kWakeId =
    std::numeric_limits<ConnectionSet::ConnId>::max();

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool ParseAddress(const std::string& host, std::uint16_t port,
                  sockaddr_in* addr) {
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  return ::inet_pton(AF_INET, numeric.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

ConnectionSet::ConnectionSet(FrameHandler on_frame, CloseHandler on_close)
    : ConnectionSet(std::move(on_frame), std::move(on_close), Options{}) {}

ConnectionSet::ConnectionSet(FrameHandler on_frame, CloseHandler on_close,
                             Options options)
    : on_frame_(std::move(on_frame)),
      on_close_(std::move(on_close)),
      options_(std::move(options)),
      epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

ConnectionSet::~ConnectionSet() {
  for (auto& [id, conn] : conns_) ::close(conn->fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool ConnectionSet::Listen(std::string* error) {
  return Listen(kListenHost, 0, error);
}

bool ConnectionSet::Listen(const std::string& host, std::uint16_t port,
                           std::string* error) {
  sockaddr_in addr;
  if (!ParseAddress(host, port, &addr)) {
    *error = "not a numeric IPv4 listen address: '" + host + "'";
    return false;
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = Errno("socket");
    return false;
  }
  int one = 1;
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  const char* failed = nullptr;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    failed = "setsockopt SO_REUSEPORT";
  } else if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
             0) {
    failed = "bind";
  } else if (::listen(fd, 128) != 0) {
    failed = "listen";
  } else if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) !=
                 0 ||
             ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    failed = "listen setup";
  }
  if (failed != nullptr) {
    *error = Errno(failed);
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  return true;
}

ConnectionSet::ConnId ConnectionSet::Dial(const std::string& host,
                                          std::uint16_t port,
                                          std::string* error) {
  sockaddr_in addr;
  if (!ParseAddress(host, port, &addr)) {
    *error = "not a numeric IPv4 address: '" + host + "'";
    return 0;
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = Errno("socket");
    return 0;
  }
  bool connecting = false;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS && errno != EINTR) {
      *error = Errno("connect");
      ::close(fd);
      return 0;
    }
    connecting = true;
  }
  const ConnId id = Add(fd, /*dialed=*/true);
  if (id == 0) {
    *error = Errno("epoll_ctl");
    return 0;
  }
  Conn* conn = Find(id);
  conn->out.push_back(kBinaryFramingByte);
  conn->connecting = connecting;
  if (connecting) {
    UpdateInterest(id, conn);
  } else {
    Flush(id, conn);  // a failure is reported by the next Poll
  }
  return id;
}

ConnectionSet::Conn* ConnectionSet::Find(ConnId id) {
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

ConnectionSet::ConnId ConnectionSet::Add(int fd, bool dialed) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const ConnId id = next_id_++;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return 0;
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->events = EPOLLIN;
  if (dialed) {
    conn->negotiated = true;
    conn->framing = Framing::Create(FramingKind::kBinary);
  }
  conns_.emplace(id, std::move(conn));
  return id;
}

bool ConnectionSet::Send(ConnId id, const std::string& frame_id,
                         const std::string& body) {
  Conn* conn = Find(id);
  // An accepted connection's framing is unknown until its first byte.
  if (conn == nullptr || !conn->negotiated) return false;
  conn->framing->Encode(frame_id, body, &conn->out);
  if (conn->out.size() > kMaxOutboundBytes) {
    Fail(id, "outbound buffer over " + std::to_string(kMaxOutboundBytes) +
                 " bytes (peer not reading)");
    return false;
  }
  return conn->connecting || Flush(id, conn);
}

void ConnectionSet::Close(ConnId id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  conns_.erase(it);
}

void ConnectionSet::Finish(ConnId id) {
  Conn* conn = Find(id);
  if (conn == nullptr) return;
  conn->reading = false;
  conn->finishing = true;
  conn->told = true;
  if (conn->out.empty() && !conn->connecting) {
    Close(id);
  } else {
    UpdateInterest(id, conn);
  }
}

void ConnectionSet::Wake() {
  const std::uint64_t one = 1;
  // EAGAIN means the counter is already nonzero: the wait ends anyway.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void ConnectionSet::Fail(ConnId id, std::string reason) {
  Conn* conn = Find(id);
  if (conn == nullptr) return;
  const bool told = conn->told;
  Close(id);
  if (!told) failed_.emplace_back(id, std::move(reason));
}

void ConnectionSet::Report(ConnId id, Conn* conn, const std::string& reason) {
  conn->reading = false;
  conn->told = true;
  UpdateInterest(id, conn);
  on_close_(id, reason);
}

bool ConnectionSet::Flush(ConnId id, Conn* conn) {
  // Output is erased as it is written; a partial write only happens under
  // backpressure, so the copy is rare.
  std::size_t sent = 0;
  while (sent < conn->out.size()) {
    const ssize_t n = ::send(conn->fd, conn->out.data() + sent,
                             conn->out.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EAGAIN) {
      break;
    } else if (n >= 0 || errno != EINTR) {
      Fail(id, Errno("send"));
      return false;
    }
  }
  conn->out.erase(0, sent);
  if (conn->finishing && conn->out.empty()) {
    Close(id);
  } else {
    UpdateInterest(id, conn);
  }
  return true;
}

void ConnectionSet::UpdateInterest(ConnId id, Conn* conn) {
  const std::uint32_t want =
      (conn->reading ? EPOLLIN : 0u) |
      (conn->connecting || !conn->out.empty() ? EPOLLOUT : 0u);
  if (conn->events == want) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->events = want;
}

void ConnectionSet::Accept() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EAGAIN: the backlog is empty
    }
    const ConnId id = Add(fd, /*dialed=*/false);
    if (id != 0 && options_.on_accept) options_.on_accept(id);
  }
}

void ConnectionSet::Read(ConnId id, Conn* conn) {
  char chunk[65536];
  ssize_t n;
  do {
    n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno != EAGAIN) Fail(id, Errno("recv"));
    return;
  }
  conn->in.append(chunk, static_cast<std::size_t>(n));
  std::string error;
  if (!conn->negotiated && !conn->in.empty()) {
    const bool hello = conn->in[0] == kBinaryFramingByte;
    const bool binary = hello && options_.accept_binary;
    if (binary) conn->in.erase(0, 1);
    conn->framing =
        Framing::Create(binary ? FramingKind::kBinary : FramingKind::kText);
    conn->negotiated = true;
    if (hello && !binary) error = kBinaryRefused;
  }
  std::vector<Framing::Message> messages;
  const bool ok = error.empty() &&
                  (!conn->negotiated ||
                   conn->framing->Decode(&conn->in, options_.max_frame_bytes,
                                         &messages, &error));
  for (const Framing::Message& m : messages) {
    on_frame_(id, m.id, m.body);
    conn = Find(id);
    if (conn == nullptr || !conn->reading) return;  // the handler ended it
  }
  if (!ok) {
    conn->in.clear();
    Report(id, conn, error);
    conn = Find(id);
    if (conn != nullptr && !conn->finishing) Close(id);
  } else if (n == 0) {
    conn->in.clear();  // a torn frame is dropped
    Report(id, conn, kClosedByPeer);
  }
}

void ConnectionSet::OnReady(ConnId id, std::uint32_t events) {
  Conn* conn = Find(id);
  if (conn == nullptr) return;  // closed earlier in this round
  if (conn->connecting) {
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    if (so_error != 0) {
      Fail(id, std::string("connect: ") + std::strerror(so_error));
      return;
    }
    if ((events & EPOLLOUT) == 0) return;
    conn->connecting = false;
  }
  if (!conn->reading) {
    if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
      // Reading stopped, and the peer is gone: the output cannot go out.
      Fail(id, "connection reset");
      return;
    }
  } else if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
    Read(id, conn);
    conn = Find(id);
    if (conn == nullptr) return;
  }
  if ((events & EPOLLOUT) != 0) Flush(id, conn);
}

bool ConnectionSet::Poll(Clock::time_point deadline) {
  if (failed_.empty()) {
    timespec wait{};
    timespec* timeout = nullptr;
    if (deadline != Clock::time_point::max()) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          deadline - Clock::now())
                          .count();
      if (ns > 0) {
        wait.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
        wait.tv_nsec = static_cast<long>(ns % 1'000'000'000);
      }
      timeout = &wait;
    }
    epoll_event events[64];
    const int n = ::epoll_pwait2(epoll_fd_, events, 64, timeout, nullptr);
    if (n < 0) return errno == EINTR;
    for (int i = 0; i < n; ++i) {
      const ConnId tag = events[i].data.u64;
      if (tag == kWakeId) {
        std::uint64_t count = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &count, sizeof(count));
      } else if (tag == kListenId) {
        Accept();
      } else {
        OnReady(tag, events[i].events);
      }
    }
  }
  // Report failures, including any a close handler causes.
  while (!failed_.empty()) {
    std::vector<std::pair<ConnId, std::string>> failed;
    failed.swap(failed_);
    for (const auto& [id, reason] : failed) on_close_(id, reason);
  }
  return true;
}

}  // namespace carat::rpc
