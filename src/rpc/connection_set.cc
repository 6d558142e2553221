#include "rpc/connection_set.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace carat::rpc {

namespace {

constexpr ConnectionSet::ConnId kListenId = 0;  ///< connection ids start at 1

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
    : on_frame_(std::move(on_frame)),
      on_close_(std::move(on_close)),
      epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {}

ConnectionSet::~ConnectionSet() {
  for (auto& [id, conn] : conns_) ::close(conn->fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool ConnectionSet::Listen(std::string* error) {
  sockaddr_in addr;
  ParseAddress(kListenHost, 0, &addr);
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  if (fd < 0) {
    *error = Errno("socket");
  } else if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
                 0 ||
             ::listen(fd, 128) != 0 ||
             ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) !=
                 0 ||
             ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    *error = Errno("listen");
    ::close(fd);
  } else {
    listen_fd_ = fd;
    port_ = ntohs(bound.sin_port);
    return true;
  }
  return false;
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
    SetWantWrite(id, conn, true);
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

void ConnectionSet::Fail(ConnId id, std::string reason) {
  if (Find(id) == nullptr) return;
  Close(id);
  failed_.emplace_back(id, std::move(reason));
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
  SetWantWrite(id, conn, !conn->out.empty());
  return true;
}

void ConnectionSet::SetWantWrite(ConnId id, Conn* conn, bool want) {
  if (conn->want_write == want) return;
  epoll_event ev{};
  ev.events = want ? EPOLLIN | EPOLLOUT : EPOLLIN;
  ev.data.u64 = id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->want_write = want;
}

void ConnectionSet::Accept() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EAGAIN: the backlog is empty
    }
    Add(fd, /*dialed=*/false);
  }
}

bool ConnectionSet::Read(ConnId id) {
  Conn* conn = Find(id);
  char chunk[65536];
  ssize_t n;
  do {
    n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == EAGAIN) return true;
    Fail(id, Errno("recv"));
    return false;
  }
  conn->in.append(chunk, static_cast<std::size_t>(n));
  if (!conn->negotiated && !conn->in.empty()) {
    const bool binary = conn->in[0] == kBinaryFramingByte;
    if (binary) conn->in.erase(0, 1);
    conn->framing =
        Framing::Create(binary ? FramingKind::kBinary : FramingKind::kText);
    conn->negotiated = true;
  }
  std::vector<Framing::Message> messages;
  std::string decode_error;
  const bool ok = !conn->negotiated ||
                  conn->framing->Decode(&conn->in, kMaxFrameBytes, &messages,
                                        &decode_error);
  for (const Framing::Message& m : messages) {
    on_frame_(id, m.id, m.body);
    if (Find(id) == nullptr) return false;  // the handler closed it
  }
  if (!ok) {
    Fail(id, "bad frame: " + decode_error);
    return false;
  }
  if (n == 0) {
    Fail(id, "closed by peer");
    return false;
  }
  return true;
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
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
    if (!Read(id)) return;
    conn = Find(id);
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
      if (events[i].data.u64 == kListenId) {
        Accept();
      } else {
        OnReady(events[i].data.u64, events[i].events);
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
