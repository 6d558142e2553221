#include "rpc/tcp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "rpc/reactor.h"

namespace carat::rpc {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Creates a bound, listening, nonblocking socket on `addr`. With
/// `reuseport`, SO_REUSEPORT is required: if the kernel refuses it,
/// `*reuseport_failed` is set so the caller can fall back to the
/// single-acceptor mode instead of reporting a hard error.
int MakeListenSocket(const sockaddr_in& addr, bool reuseport,
                     bool* reuseport_failed, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport) {
#ifdef SO_REUSEPORT
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
      *error = std::string("setsockopt SO_REUSEPORT: ") + std::strerror(errno);
      *reuseport_failed = true;
      ::close(fd);
      return -1;
    }
#else
    *error = "SO_REUSEPORT not available";
    *reuseport_failed = true;
    ::close(fd);
    return -1;
#endif
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 128) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  SetNonBlocking(fd);
  return fd;
}

std::uint16_t LocalPort(int fd, std::string* error) {
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    *error = std::string("getsockname: ") + std::strerror(errno);
    return 0;
  }
  return ntohs(bound.sin_port);
}

}  // namespace

TcpServer::TcpServer(Options options) : options_(std::move(options)) {}

TcpServer::~TcpServer() { Shutdown(); }

bool TcpServer::Start(std::string* error) {
  if (options_.service == nullptr || options_.pool == nullptr) {
    *error = "TcpServer requires a SolverService and a ThreadPool";
    return false;
  }
  if (options_.max_inflight == 0) {
    *error = "max_inflight must be >= 1";
    return false;
  }
  if (options_.reactors == 0) {
    *error = "reactors must be >= 1";
    return false;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  const std::string host =
      options_.host == "localhost" ? "127.0.0.1" : options_.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "not a numeric IPv4 listen address: '" + options_.host + "'";
    return false;
  }

  const std::size_t n = options_.reactors;
  std::vector<int> listen_fds(n, -1);
  single_acceptor_ = options_.force_single_acceptor || n == 1;

  if (!single_acceptor_) {
    // SO_REUSEPORT sharding: every reactor binds its own socket on the
    // shared port and the kernel spreads connections across them.
    bool reuseport_failed = false;
    listen_fds[0] = MakeListenSocket(addr, /*reuseport=*/true,
                                     &reuseport_failed, error);
    if (listen_fds[0] < 0) {
      if (!reuseport_failed) return false;
      single_acceptor_ = true;  // fall back below
    } else {
      const std::uint16_t bound = LocalPort(listen_fds[0], error);
      if (bound == 0) {
        ::close(listen_fds[0]);
        return false;
      }
      addr.sin_port = htons(bound);  // siblings must join the same group
      for (std::size_t i = 1; i < n; ++i) {
        bool sibling_failed = false;
        listen_fds[i] =
            MakeListenSocket(addr, /*reuseport=*/true, &sibling_failed, error);
        if (listen_fds[i] < 0) {
          for (const int fd : listen_fds) {
            if (fd >= 0) ::close(fd);
          }
          return false;
        }
      }
      port_ = bound;
    }
  }
  if (single_acceptor_) {
    // One listen socket on reactor 0; accepted fds are handed round-robin
    // to the other reactors.
    listen_fds.assign(n, -1);
    listen_fds[0] =
        MakeListenSocket(addr, /*reuseport=*/false, nullptr, error);
    if (listen_fds[0] < 0) return false;
    port_ = LocalPort(listen_fds[0], error);
    if (port_ == 0) {
      ::close(listen_fds[0]);
      return false;
    }
  }

  reactors_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(this, i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    // The reactor owns its fd from here on (its destructor closes it even
    // when Start fails before the loop thread spawns).
    if (!reactors_[i]->Start(listen_fds[i], error)) {
      listen_fds[i] = -1;
      for (std::size_t j = i + 1; j < n; ++j) {
        if (listen_fds[j] >= 0) ::close(listen_fds[j]);
      }
      for (std::size_t j = 0; j < i; ++j) reactors_[j]->BeginDrain();
      for (std::size_t j = 0; j < i; ++j) reactors_[j]->Join();
      reactors_.clear();
      return false;
    }
    listen_fds[i] = -1;
  }

  std::lock_guard<std::mutex> lock(join_mu_);
  started_ = true;
  return true;
}

void TcpServer::Shutdown() {
  // Serialize the drain + join so concurrent Shutdown calls (signal thread
  // + destructor) are safe: the first drains and joins, the rest see the
  // threads already joined.
  std::lock_guard<std::mutex> lock(join_mu_);
  if (!started_) return;
  for (const auto& reactor : reactors_) reactor->BeginDrain();
  for (const auto& reactor : reactors_) reactor->Join();
}

ServerStats TcpServer::stats() const {
  ServerStats total;
  for (const auto& reactor : reactors_) {
    const ServerStats s = reactor->StatsSnapshot();
    total.connections_accepted += s.connections_accepted;
    total.connections_closed += s.connections_closed;
    total.active_connections += s.active_connections;
    total.requests_submitted += s.requests_submitted;
    total.requests_completed += s.requests_completed;
    total.requests_rejected += s.requests_rejected;
    total.requests_timed_out += s.requests_timed_out;
    total.parse_errors += s.parse_errors;
    total.frames_oversized += s.frames_oversized;
    total.idle_disconnects += s.idle_disconnects;
  }
  return total;
}

std::vector<ServerStats> TcpServer::ReactorStats() const {
  std::vector<ServerStats> out;
  out.reserve(reactors_.size());
  for (const auto& reactor : reactors_) {
    out.push_back(reactor->StatsSnapshot());
  }
  return out;
}

double TcpServer::LatencyPercentileMs(double percentile) const {
  LatencyHistogram merged;
  for (const auto& reactor : reactors_) reactor->MergeLatency(&merged);
  return merged.PercentileMs(percentile);
}

bool TcpServer::TryAdmit() {
  const std::size_t prev = inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (prev >= options_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  return true;
}

void TcpServer::ReleaseAdmission() {
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
}

std::size_t TcpServer::NextHandoffTarget() {
  return next_handoff_.fetch_add(1, std::memory_order_relaxed) %
         reactors_.size();
}

std::string TcpServer::BuildStatsBody() const {
  // Touches only per-reactor leaf stats mutexes and the service mutex; the
  // service never calls back into the server, so the order is one-way.
  const ServerStats agg = stats();
  LatencyHistogram merged;
  for (const auto& reactor : reactors_) reactor->MergeLatency(&merged);
  const serve::ServiceStats service = options_.service->stats();
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "STATS accepted=%llu active=%llu submitted=%llu completed=%llu "
      "rejected=%llu timed_out=%llu parse_errors=%llu oversized=%llu "
      "idle_disconnects=%llu cache_hits=%llu coalesced=%llu solved=%llu "
      "warm_started=%llu total_iterations=%llu cache_evictions=%llu "
      "cache_expirations=%llu batched=%llu batch_blocks=%llu "
      "batch_scalar_tail=%llu "
      "p50_ms=%.3f p99_ms=%.3f",
      static_cast<unsigned long long>(agg.connections_accepted),
      static_cast<unsigned long long>(agg.active_connections),
      static_cast<unsigned long long>(agg.requests_submitted),
      static_cast<unsigned long long>(agg.requests_completed),
      static_cast<unsigned long long>(agg.requests_rejected),
      static_cast<unsigned long long>(agg.requests_timed_out),
      static_cast<unsigned long long>(agg.parse_errors),
      static_cast<unsigned long long>(agg.frames_oversized),
      static_cast<unsigned long long>(agg.idle_disconnects),
      static_cast<unsigned long long>(service.cache_hits),
      static_cast<unsigned long long>(service.coalesced),
      static_cast<unsigned long long>(service.solved),
      static_cast<unsigned long long>(service.warm_started),
      static_cast<unsigned long long>(service.total_iterations),
      static_cast<unsigned long long>(service.cache_evictions),
      static_cast<unsigned long long>(service.cache_expirations),
      static_cast<unsigned long long>(service.batched),
      static_cast<unsigned long long>(service.batch_blocks),
      static_cast<unsigned long long>(service.batch_scalar_tail),
      merged.PercentileMs(50.0), merged.PercentileMs(99.0));
  std::string out = buf;
  out += " reactors=" + std::to_string(reactors_.size());
  for (std::size_t i = 0; i < reactors_.size(); ++i) {
    const ServerStats s = reactors_[i]->StatsSnapshot();
    char part[160];
    std::snprintf(part, sizeof(part),
                  " r%zu_active=%llu r%zu_submitted=%llu r%zu_completed=%llu",
                  i, static_cast<unsigned long long>(s.active_connections), i,
                  static_cast<unsigned long long>(s.requests_submitted), i,
                  static_cast<unsigned long long>(s.requests_completed));
    out += part;
  }
  return out;
}

}  // namespace carat::rpc
