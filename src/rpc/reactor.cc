#include "rpc/reactor.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <utility>

namespace carat::rpc {

namespace {

/// Longest accepted request id; a longer token is answered under the
/// unattributable id "?" (the frame itself is already length-bounded).
constexpr std::size_t kMaxIdBytes = 64;

}  // namespace

Reactor::Reactor(TcpServer* server) : server_(server) {
  const TcpServer::Options& options = server_->options();
  ConnectionSet::Options net;
  net.max_frame_bytes = options.max_line_bytes;
  net.accept_binary = options.enable_binary_framing;
  net.on_accept = [this](ConnId conn) { OnAccept(conn); };
  net_ = std::make_unique<ConnectionSet>(
      [this](ConnId conn, const std::string& id, const std::string& body) {
        OnFrame(conn, id, body);
      },
      [this](ConnId conn, const std::string& reason) {
        OnClose(conn, reason);
      },
      std::move(net));
}

Reactor::~Reactor() { Join(); }

bool Reactor::Start(std::uint16_t port, std::string* error) {
  if (!net_->Listen(server_->options().host, port, error)) return false;
  port_ = net_->port();
  loop_ = std::thread(&Reactor::Loop, this);
  return true;
}

void Reactor::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  if (net_ != nullptr) net_->Wake();
}

void Reactor::Join() {
  if (loop_.joinable()) loop_.join();
}

ServerStats Reactor::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void Reactor::MergeLatency(LatencyHistogram* into) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  into->Merge(latency_);
}

void Reactor::Count(std::uint64_t ServerStats::*counter) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++(stats_.*counter);
}

void Reactor::Loop() {
  for (;;) {
    bool draining = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      delivering_.swap(posted_);
      draining = draining_;
    }
    for (const Posted& posted : delivering_) Deliver(posted);
    delivering_.clear();
    Clock::time_point deadline = Clock::time_point::max();
    if (draining) {
      if (!drain_began_) StartDrain();
      // Every answer this reactor dispatched has been taken from posted_,
      // so no worker touches it again, and every connection is written out
      // and closed.
      if (outstanding_ == 0 && net_->size() == 0) break;
    } else {
      deadline = SweepIdle();
    }
    if (!net_->Poll(deadline)) break;  // epoll itself failed
  }
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.connections_closed += conns_.size();
    stats_.active_connections = 0;
  }
  conns_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  net_.reset();  // closes the listen socket and anything left open
}

void Reactor::StartDrain() {
  drain_began_ = true;
  for (auto it = conns_.begin(); it != conns_.end();) {
    const ConnId id = it->first;
    Conn& conn = (it++)->second;
    conn.reading = false;
    Settle(id, conn);
  }
}

Reactor::Clock::time_point Reactor::SweepIdle() {
  const int timeout_ms = server_->options().idle_timeout_ms;
  if (timeout_ms <= 0) return Clock::time_point::max();
  const auto timeout = std::chrono::milliseconds(timeout_ms);
  const Clock::time_point now = Clock::now();
  Clock::time_point next = Clock::time_point::max();
  for (auto it = conns_.begin(); it != conns_.end();) {
    const ConnId id = it->first;
    const Conn& conn = (it++)->second;
    if (conn.inflight != 0) continue;
    if (now - conn.last_active < timeout) {
      next = std::min(next, conn.last_active + timeout);
      continue;
    }
    Count(&ServerStats::idle_disconnects);
    net_->Finish(id);
    Forget(id);
  }
  return next;
}

void Reactor::OnAccept(ConnId conn) {
  if (drain_began_) {
    net_->Finish(conn);  // draining: no new connections
    return;
  }
  conns_[conn].last_active = Clock::now();
  std::lock_guard<std::mutex> slock(stats_mu_);
  ++stats_.connections_accepted;
  ++stats_.active_connections;
}

void Reactor::Forget(ConnId id) {
  conns_.erase(id);
  std::lock_guard<std::mutex> slock(stats_mu_);
  ++stats_.connections_closed;
  --stats_.active_connections;
}

void Reactor::Settle(ConnId id, const Conn& conn) {
  if (conn.reading || conn.inflight != 0) return;
  net_->Finish(id);
  Forget(id);
}

void Reactor::OnClose(ConnId conn, const std::string& reason) {
  const auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  if (reason == ConnectionSet::kClosedByPeer) {
    // The peer may still read: answer what is in flight, then finish. A
    // torn frame is dropped without an answer.
    it->second.reading = false;
    Settle(conn, it->second);
    return;
  }
  // A bad frame is reported while the connection can still be written, so
  // it is answered with an unattributable ERROR before the close; answers
  // still in flight on it are dropped. A failed connection is gone already,
  // and the Send fails.
  if (net_->Send(conn, "?", "ERROR " + reason)) {
    Count(reason == ConnectionSet::kBinaryRefused
              ? &ServerStats::parse_errors
              : &ServerStats::frames_oversized);
    net_->Finish(conn);
  }
  Forget(conn);
}

void Reactor::Deliver(const Posted& posted) {
  --outstanding_;
  const auto it = conns_.find(posted.conn);
  if (it == conns_.end()) return;  // the connection ended first
  Conn& conn = it->second;
  --conn.inflight;
  conn.last_active = Clock::now();
  net_->Send(posted.conn, posted.id, posted.body);
  Settle(posted.conn, conn);
}

void Reactor::OnFrame(ConnId conn_id, const std::string& id,
                      const std::string& message) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end() || !it->second.reading) return;  // draining
  Conn& conn = it->second;
  conn.last_active = Clock::now();
  if (id.size() > kMaxIdBytes) {
    Count(&ServerStats::parse_errors);
    net_->Send(conn_id, "?", "ERROR request id exceeds " +
                                   std::to_string(kMaxIdBytes) + " bytes");
    return;
  }
  std::istringstream in(message);
  std::vector<std::string> tokens;
  for (std::string tok; in >> tok;) tokens.push_back(std::move(tok));
  if (tokens.empty()) {
    Count(&ServerStats::parse_errors);
    net_->Send(conn_id, id, "ERROR empty request");
    return;
  }
  if (tokens[0] == "STATS") {
    net_->Send(conn_id, id, server_->BuildStatsBody());
    return;
  }

  // Extract the protocol-level deadline_ms field; the rest of the tokens
  // are the query in the serve::ParseQuery grammar.
  double deadline_ms = 0.0;
  std::string body;
  for (const std::string& token : tokens) {
    if (token.rfind("deadline_ms=", 0) == 0) {
      const char* value = token.c_str() + sizeof("deadline_ms=") - 1;
      char* end = nullptr;
      deadline_ms = std::strtod(value, &end);
      if (*value == '\0' || *end != '\0' || deadline_ms < 0) {
        Count(&ServerStats::parse_errors);
        net_->Send(conn_id, id, "ERROR bad value in '" + token + "'");
        return;
      }
      continue;
    }
    if (!body.empty()) body += ' ';
    body += token;
  }

  serve::Query query;
  model::ModelInput input;
  std::string error;
  if (!serve::ParseQuery(body, &query, &input, &error)) {
    Count(&ServerStats::parse_errors);
    net_->Send(conn_id, id, "ERROR " + error);
    return;
  }

  if (!server_->TryAdmit()) {
    Count(&ServerStats::requests_rejected);
    net_->Send(conn_id, id, "BUSY");
    return;
  }
  ++conn.inflight;
  ++outstanding_;
  Count(&ServerStats::requests_submitted);

  const Clock::time_point enqueued = Clock::now();
  const bool has_deadline = deadline_ms > 0.0;
  const Clock::time_point deadline =
      has_deadline
          ? enqueued + std::chrono::microseconds(
                           static_cast<long long>(deadline_ms * 1000.0))
          : Clock::time_point();
  const std::optional<bool> exact = query.use_exact_mva;
  serve::SolverService* service = server_->options().service;

  server_->options().pool->Submit([this, conn_id, id, query = std::move(query),
                                   input = std::move(input), enqueued,
                                   has_deadline, deadline, exact,
                                   service]() mutable {
    // An expired request is answered without occupying this worker for a
    // solve; the check runs at dispatch, after any time spent queued.
    if (has_deadline && Clock::now() >= deadline) {
      PostResponse(conn_id, id, "TIMEOUT", enqueued, /*timed_out=*/true);
      return;
    }
    model::ModelSolution solution;
    try {
      if (exact.has_value()) {
        model::SolverOptions solver = service->options().solver;
        solver.use_exact_mva = *exact;
        solution = service->SolveSync(std::move(input), &solver);
      } else {
        solution = service->SolveSync(std::move(input));
      }
    } catch (const std::exception& e) {
      solution = model::ModelSolution{};
      solution.ok = false;
      solution.error = e.what();
    } catch (...) {
      solution = model::ModelSolution{};
      solution.ok = false;
      solution.error = "unknown solver failure";
    }
    if (has_deadline && Clock::now() > deadline) {
      // Solved, but past its deadline: the answer the client contracted for
      // no longer exists. The solution stays cached for future queries.
      PostResponse(conn_id, id, "TIMEOUT", enqueued, /*timed_out=*/true);
      return;
    }
    PostResponse(conn_id, id, serve::FormatResult(query, solution), enqueued,
                 /*timed_out=*/false);
  });
}

void Reactor::PostResponse(ConnId conn, std::string id, std::string body,
                           Clock::time_point enqueued, bool timed_out) {
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    if (timed_out) {
      ++stats_.requests_timed_out;
    } else {
      ++stats_.requests_completed;
      const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - enqueued);
      latency_.Record(static_cast<std::uint64_t>(micros.count()));
    }
  }
  // The admission slot is released under mu_ too: once the loop thread has
  // taken this answer, this worker touches neither the reactor nor the
  // server again, so a drained server may be destroyed.
  std::lock_guard<std::mutex> lock(mu_);
  posted_.push_back(Posted{conn, std::move(id), std::move(body)});
  // The loop takes the whole queue per wake-up, so only the first answer
  // after a take needs to wake it.
  if (posted_.size() == 1 && net_ != nullptr) net_->Wake();
  server_->ReleaseAdmission();
}

}  // namespace carat::rpc
