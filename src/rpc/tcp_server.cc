#include "rpc/tcp_server.h"

#include <cstdio>
#include <utility>

#include "rpc/reactor.h"

namespace carat::rpc {

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

  // All reactors exist before any loop runs, so STATS may walk the list.
  for (std::size_t i = 0; i < options_.reactors; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(this));
  }
  // The first reactor binds the requested port; its siblings join it.
  std::uint16_t port = options_.port;
  for (const auto& reactor : reactors_) {
    if (!reactor->Start(port, error)) {
      for (const auto& r : reactors_) r->BeginDrain();
      for (const auto& r : reactors_) r->Join();
      reactors_.clear();
      return false;
    }
    port = reactor->port();
  }
  port_ = port;

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
