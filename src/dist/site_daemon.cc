#include "dist/site_daemon.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dist/engine.h"
#include "dist/wire.h"
#include "rpc/connection_set.h"
#include "util/cli.h"

namespace carat::dist {

namespace {

using ConnId = rpc::ConnectionSet::ConnId;
using Clock = rpc::ConnectionSet::Clock;

/// RTT samples per outgoing link; ALPHA reports their median.
constexpr std::size_t kPingsPerLink = 5;

class SiteDaemon {
 public:
  explicit SiteDaemon(const SiteDaemonOptions& options)
      : options_(options),
        net_(
            [this](ConnId conn, const std::string& id,
                   const std::string& body) { OnFrame(conn, id, body); },
            [this](ConnId conn, const std::string& reason) {
              OnClose(conn, reason);
            }) {}

  int Run() {
    std::string error;
    if (!net_.Listen(&error)) return Fail("mesh listen: " + error);
    control_ = net_.Dial(options_.coordinator_host,
                         static_cast<std::uint16_t>(options_.coordinator_port),
                         &error);
    if (control_ == 0) return Fail("coordinator connect: " + error);
    std::string hello = "HELLO";
    wire::AppendKv(&hello, "site", static_cast<std::int64_t>(options_.site));
    wire::AppendKv(&hello, "port", static_cast<std::int64_t>(net_.port()));
    wire::AppendKv(&hello, "cc", std::string_view(options_.cc));
    ControlSend(hello);

    // CONFIG sizes the site, so until it arrives there is no kernel and the
    // sockets alone are served. A coordinator that dies closes the link.
    while (exit_code_ < 0 && engine_ == nullptr) {
      if (!net_.Poll(Clock::time_point::max())) Fail("epoll failed");
    }
    if (engine_ != nullptr) {
      engine_->Run(&net_, [this] { return exit_code_ >= 0; });
      engine_->Stop();
    }
    return exit_code_ >= 0 ? exit_code_ : Fail("epoll failed");
  }

 private:
  /// Logs `message` and ends the run with exit code 1, unless it has ended
  /// already. Returns 1.
  int Fail(const std::string& message) {
    if (exit_code_ < 0) {
      std::fprintf(stderr, "carat_sited[site %d]: %s\n", options_.site,
                   message.c_str());
      exit_code_ = 1;
    }
    return 1;
  }

  void ControlSend(const std::string& body) {
    if (!net_.Send(control_, "0", body)) {
      Fail("control send failed (" + body.substr(0, body.find(' ')) + ")");
    }
  }

  /// Engine Sender.
  void MeshSend(int to, const std::string& body) {
    const auto it = links_.find(to);
    if (it != links_.end()) SendOn(it->second, "0", body);
  }

  /// A send that fails has failed its connection: the output passed the
  /// bound (the peer stopped reading) or the write erred. On a mesh link
  /// that is this site's own failure, and the close handler ends the run
  /// with the reason.
  void SendOn(ConnId conn, const std::string& id, const std::string& body) {
    if (!net_.Send(conn, id, body) && peer_of_.contains(conn)) {
      failed_sends_.insert(conn);
    }
  }

  void Bind(int peer, ConnId conn) {
    links_[peer] = conn;
    peer_of_[conn] = peer;
  }

  void OnClose(ConnId conn, const std::string& reason) {
    net_.Close(conn);  // a peer's EOF leaves its connection open for output
    if (conn == control_) {
      Fail("coordinator link lost: " + reason);
      return;
    }
    const auto it = peer_of_.find(conn);
    if (it == peer_of_.end()) return;  // a load generator or a stray
    const int peer = it->second;
    const bool own = failed_sends_.erase(conn) > 0;
    links_.erase(peer);
    peer_of_.erase(it);
    // Once REPORT is out, peers exit at SHUTDOWN in any order.
    if (reported_ || exit_code_ >= 0) return;
    const std::string link = "mesh link to site " + std::to_string(peer);
    if (own || !alpha_sent_) {
      Fail(link + " failed: " + reason);
    } else {
      // The peer died or dropped a built mesh. Its control link tells the
      // coordinator, which ends the run; until then this site stays up to
      // answer DUMP.
      std::fprintf(stderr, "carat_sited[site %d]: %s lost: %s\n",
                   options_.site, link.c_str(), reason.c_str());
    }
  }

  void OnFrame(ConnId conn, const std::string& id, const std::string& body) {
    if (conn == control_) {
      OnControl(body);
      return;
    }
    wire::TokenReader reader(body);
    std::string_view verb;
    if (!reader.Next(&verb)) return;
    if (verb == "SITE") {
      OnSiteClaim(conn, reader);
      return;
    }
    if (verb == "PING") {
      std::string_view k;
      reader.Next(&k);
      SendOn(conn, "0", "PONG " + std::string(k));
      return;
    }
    if (verb == "TXN") {
      std::string_view type_token;
      int requests = 1;
      if (engine_ == nullptr || !reader.Next(&type_token) ||
          !reader.NextInt(&requests)) {
        return;
      }
      engine_->SubmitExternalTxn(
          type_token, requests, [this, conn, id](const std::string& reply) {
            SendOn(conn, id, reply);
          });
      return;
    }
    // Mesh traffic from an identified peer.
    const auto it = peer_of_.find(conn);
    if (it == peer_of_.end()) return;
    std::uint64_t sent_ns = 0;
    if (verb == "PONG") {
      if (reader.NextU64(&sent_ns)) OnPong(it->second, sent_ns);
    } else if (engine_ != nullptr) {
      engine_->HandleMessage(it->second, body);
    }
  }

  void OnControl(const std::string& body) {
    wire::TokenReader reader(body);
    std::string_view verb;
    if (!reader.Next(&verb)) return;
    if (verb == "CONFIG") {
      OnConfig(body);
    } else if (verb == "PEERS") {
      OnPeers(reader);
    } else if (verb == "START") {
      OnStart(body);
    } else if (verb == "FINISH") {
      OnFinish(body);
    } else if (verb == "DUMP") {
      // Stuck-run diagnosis: the coordinator asks for the wait state when
      // a site misses a protocol deadline. stderr reaches the operator's
      // terminal through the inherited descriptor.
      std::fprintf(stderr, "carat_sited[site %d]: cc=%s\n", options_.site,
                   options_.cc.c_str());
      if (engine_ != nullptr) {
        std::fprintf(stderr, "%s", engine_->DebugSnapshot().c_str());
      }
    } else if (verb == "SHUTDOWN") {
      if (exit_code_ < 0) exit_code_ = 0;
    } else {
      Fail("unexpected control verb: " + std::string(verb));
    }
  }

  void OnConfig(const std::string& payload) {
    if (engine_ != nullptr) {
      Fail("second CONFIG");
      return;
    }
    // "CONFIG <kv...>": ParseKv skips the bare verb token.
    std::string error;
    if (!wire::DistConfig::Decode(payload, &config_, &error)) {
      Fail(error);
      return;
    }
    if (options_.site < 0 || options_.site >= config_.sites) {
      Fail("site index out of range");
      return;
    }
    if (config_.cc != options_.cc) {
      Fail("CONFIG names cc backend '" + config_.cc +
           "' but this site runs '" + options_.cc +
           "' (mixed-backend meshes are rejected)");
      return;
    }
    EngineOptions eopts;
    eopts.site = options_.site;
    eopts.num_sites = config_.sites;
    eopts.scale = config_.scale;
    eopts.seed = config_.seed;
    eopts.spawn_users = config_.spawn_users;
    engine_ = std::make_unique<SiteEngine>(
        config_.ToModelInput(), eopts,
        [this](int to, const std::string& body) { MeshSend(to, body); });
  }

  void OnPeers(wire::TokenReader& reader) {
    if (engine_ == nullptr || peers_known_) {
      Fail("PEERS before CONFIG, or twice");
      return;
    }
    std::vector<std::string> endpoints;
    std::string_view token;
    while (reader.Next(&token)) endpoints.emplace_back(token);
    if (static_cast<int>(endpoints.size()) != config_.sites) {
      Fail("PEERS size mismatch");
      return;
    }
    // Dial every higher-indexed peer; SITE identifies us on their side.
    for (int j = options_.site + 1; j < config_.sites; ++j) {
      const std::string& endpoint = endpoints[static_cast<std::size_t>(j)];
      std::string host;
      int port = 0;
      std::string error;
      if (!util::ParseHostPort(endpoint.c_str(), &host, &port,
                               util::PortZeroPolicy::kReject)) {
        Fail("bad peer endpoint: " + endpoint);
        return;
      }
      const ConnId conn =
          net_.Dial(host, static_cast<std::uint16_t>(port), &error);
      if (conn == 0) {
        Fail("peer " + std::to_string(j) + " connect: " + error);
        return;
      }
      Bind(j, conn);
      rtts_ms_[j];
      SendOn(conn, "0", "SITE " + std::to_string(options_.site));
      SendPing(j);
    }
    peers_known_ = true;
    MaybeSendAlpha();
  }

  /// A lower-indexed peer identifies its link. This site's index is known
  /// from the command line, before PEERS, so a claim is checked at once: a
  /// claim outside [0, site), of a slot already taken, or from a connection
  /// already identified is not a peer's, and its connection is closed.
  void OnSiteClaim(ConnId conn, wire::TokenReader& reader) {
    int peer = -1;
    if (!reader.NextInt(&peer) || peer < 0 || peer >= options_.site ||
        links_.contains(peer) || peer_of_.contains(conn)) {
      std::fprintf(stderr, "carat_sited[site %d]: rejected SITE %d claim\n",
                   options_.site, peer);
      net_.Close(conn);
      return;
    }
    Bind(peer, conn);
    MaybeSendAlpha();
  }

  /// One RTT probe on an outgoing link; the PONG echoes its send time.
  void SendPing(int peer) {
    const std::chrono::nanoseconds now = Clock::now().time_since_epoch();
    SendOn(links_[peer], "0", "PING " + std::to_string(now.count()));
  }

  void OnPong(int peer, std::uint64_t sent_ns) {
    const auto it = rtts_ms_.find(peer);
    if (it == rtts_ms_.end() || it->second.size() >= kPingsPerLink) return;
    const std::chrono::duration<double, std::milli> rtt =
        Clock::now().time_since_epoch() -
        std::chrono::nanoseconds(static_cast<std::int64_t>(sent_ns));
    it->second.push_back(rtt.count());
    if (it->second.size() < kPingsPerLink) {
      SendPing(peer);
    } else {
      MaybeSendAlpha();
    }
  }

  /// ALPHA: once every lower-indexed peer has dialed in (their links also
  /// carry the PONG path) and every outgoing link has its RTT samples.
  void MaybeSendAlpha() {
    if (alpha_sent_ || !peers_known_) return;
    const auto inbound = std::distance(links_.begin(),
                                       links_.lower_bound(options_.site));
    if (inbound != options_.site) return;
    double rtt_sum = 0.0;
    for (auto& [peer, rtts] : rtts_ms_) {
      if (rtts.size() < kPingsPerLink) return;
      std::sort(rtts.begin(), rtts.end());
      rtt_sum += rtts[rtts.size() / 2];
    }
    std::string alpha = "ALPHA";
    wire::AppendKv(&alpha, "rtt_sum_ms", rtt_sum);
    wire::AppendKv(&alpha, "links", static_cast<std::int64_t>(rtts_ms_.size()));
    ControlSend(alpha);
    alpha_sent_ = true;
  }

  void OnStart(const std::string& payload) {
    if (engine_ == nullptr) {
      Fail("START before CONFIG");
      return;
    }
    const auto kv = wire::ParseKv(payload);
    double warmup_ms = 0.0;
    double measure_ms = 0.0;
    if (!wire::KvDouble(kv, "warmup_ms", &warmup_ms) ||
        !wire::KvDouble(kv, "measure_ms", &measure_ms)) {
      Fail("START missing window");
      return;
    }
    engine_->Start(warmup_ms, measure_ms, [this] {
      std::string drained = "DRAINED";
      wire::AppendKv(&drained, "site",
                     static_cast<std::int64_t>(options_.site));
      ControlSend(drained);
    });
  }

  void OnFinish(const std::string& payload) {
    if (engine_ == nullptr) {
      Fail("FINISH before CONFIG");
      return;
    }
    const auto kv = wire::ParseKv(payload);
    double timeout_ms = 10'000.0;
    wire::KvDouble(kv, "timeout_ms", &timeout_ms);
    engine_->Drain(timeout_ms, [this](bool drained) {
      EngineReport report = engine_->Collect();
      report.drained = report.drained && drained;
      ControlSend("REPORT" + report.Encode());
      reported_ = true;
    });
  }

  const SiteDaemonOptions options_;
  // Declared before engine_, so the engine (whose events send through it)
  // is destroyed first.
  rpc::ConnectionSet net_;
  ConnId control_ = 0;
  wire::DistConfig config_;
  std::unique_ptr<SiteEngine> engine_;
  int exit_code_ = -1;  ///< set once the run ends (SHUTDOWN or a failure)

  std::map<int, ConnId> links_;  ///< mesh links by peer index
  std::unordered_map<ConnId, int> peer_of_;
  std::unordered_set<ConnId> failed_sends_;  ///< mesh links this site failed
  std::map<int, std::vector<double>> rtts_ms_;  ///< by outgoing link
  bool peers_known_ = false;
  bool alpha_sent_ = false;
  bool reported_ = false;
};

}  // namespace

int RunSiteDaemon(const SiteDaemonOptions& options) {
  return SiteDaemon(options).Run();
}

}  // namespace carat::dist
