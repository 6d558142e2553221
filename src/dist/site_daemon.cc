#include "dist/site_daemon.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dist/engine.h"
#include "dist/wire.h"
#include "rpc/client.h"
#include "rpc/message_server.h"
#include "util/cli.h"

namespace carat::dist {

namespace {

/// Strips the "<id> " prefix rpc::Client prepends to binary frames.
std::string_view StripFrameId(std::string_view line) {
  const std::size_t space = line.find(' ');
  return space == std::string_view::npos ? std::string_view()
                                         : line.substr(space + 1);
}

class SiteDaemon {
 public:
  explicit SiteDaemon(const SiteDaemonOptions& options) : options_(options) {}

  int Run() {
    std::string error;
    server_ = std::make_unique<rpc::MessageServer>(
        rpc::MessageServer::Options{},
        [this](const rpc::MessageServer::ConnectionPtr& conn,
               const std::string& id, const std::string& body) {
          OnFrame(conn, id, body);
        });
    if (!server_->Start(&error)) return Fail("mesh listen: " + error);

    rpc::Client::ConnectOptions copts;
    copts.framing = rpc::FramingKind::kBinary;
    copts.recv_timeout_ms = options_.control_timeout_ms;
    copts.connect_timeout_ms = 5000;
    copts.connect_attempts = 50;
    copts.reconnect_backoff_ms = 100;
    if (!control_.Connect(options_.coordinator_host,
                          static_cast<std::uint16_t>(options_.coordinator_port),
                          &error, copts)) {
      return Fail("coordinator connect: " + error);
    }
    {
      std::string hello = "0 HELLO";
      wire::AppendKv(&hello, "site",
                     static_cast<std::int64_t>(options_.site));
      wire::AppendKv(&hello, "port",
                     static_cast<std::int64_t>(server_->port()));
      wire::AppendKv(&hello, "cc", std::string_view(options_.cc));
      if (!control_.SendLine(hello)) return Fail("HELLO send failed");
    }

    // Control loop: the coordinator drives, the daemon reacts.
    for (;;) {
      std::string line;
      if (!control_.ReadLine(&line)) {
        return Fail("coordinator link lost");
      }
      const std::string_view payload = StripFrameId(line);
      wire::TokenReader reader(payload);
      std::string_view verb;
      if (!reader.Next(&verb)) continue;
      int rc = 0;
      if (verb == "CONFIG") {
        rc = OnConfig(payload);
      } else if (verb == "PEERS") {
        rc = OnPeers(reader);
      } else if (verb == "START") {
        rc = OnStart(payload);
      } else if (verb == "FINISH") {
        rc = OnFinish(payload);
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
        break;
      } else {
        rc = Fail("unexpected control verb: " + std::string(verb));
      }
      if (rc != 0) return rc;
    }

    Teardown();
    return 0;
  }

 private:
  struct OutLink {
    std::unique_ptr<rpc::Client> client;
    std::mutex send_mu;  ///< serializes the loop's SendLine against PING
    std::thread reader;
  };

  /// Serializes control-channel writes: DRAINED ships from the window
  /// thread while the control loop may answer DUMP or send REPORT.
  bool ControlSend(const std::string& line) {
    std::lock_guard<std::mutex> lock(control_send_mu_);
    return control_.SendLine(line);
  }

  int Fail(const std::string& message) {
    std::fprintf(stderr, "carat_sited[site %d]: %s\n", options_.site,
                 message.c_str());
    Teardown();
    return 1;
  }

  void Teardown() {
    closing_.store(true);
    if (engine_ != nullptr) engine_->Stop();
    if (window_thread_.joinable()) window_thread_.join();
    for (auto& link : out_) {
      if (link == nullptr || link->client == nullptr) continue;
      // Wake the reader out of its blocking read, and close the link only
      // once the reader no longer uses it.
      link->client->Shutdown();
      if (link->reader.joinable()) link->reader.join();
      link->client->Close();
    }
    if (server_ != nullptr) server_->Shutdown();
  }

  int OnConfig(std::string_view payload) {
    // "CONFIG <kv...>": ParseKv skips the bare verb token.
    std::string error;
    if (!wire::DistConfig::Decode(payload, &config_, &error)) {
      return Fail(error);
    }
    if (options_.site < 0 || options_.site >= config_.sites) {
      return Fail("site index out of range");
    }
    if (config_.cc != options_.cc) {
      return Fail("CONFIG names cc backend '" + config_.cc +
                  "' but this site runs '" + options_.cc +
                  "' (mixed-backend meshes are rejected)");
    }
    EngineOptions eopts;
    eopts.site = options_.site;
    eopts.num_sites = config_.sites;
    eopts.scale = config_.scale;
    eopts.seed = config_.seed;
    eopts.spawn_users = config_.spawn_users;
    auto engine = std::make_unique<SiteEngine>(
        config_.ToModelInput(), eopts,
        [this](int to, const std::string& body) { MeshSend(to, body); });
    {
      std::lock_guard<std::mutex> lock(mu_);
      engine_ = std::move(engine);
    }
    return 0;
  }

  int OnPeers(wire::TokenReader& reader) {
    if (engine_ == nullptr) return Fail("PEERS before CONFIG");
    std::vector<std::string> endpoints;
    std::string_view token;
    while (reader.Next(&token)) endpoints.emplace_back(token);
    if (static_cast<int>(endpoints.size()) != config_.sites) {
      return Fail("PEERS size mismatch");
    }
    out_.resize(static_cast<std::size_t>(config_.sites));

    // Dial every higher-indexed peer; SITE identifies us on their side.
    for (int j = options_.site + 1; j < config_.sites; ++j) {
      std::string host;
      int port = 0;
      if (!util::ParseHostPort(endpoints[static_cast<std::size_t>(j)].c_str(),
                               &host, &port, util::PortZeroPolicy::kReject)) {
        return Fail("bad peer endpoint: " + endpoints[j]);
      }
      auto link = std::make_unique<OutLink>();
      link->client = std::make_unique<rpc::Client>();
      rpc::Client::ConnectOptions copts;
      copts.framing = rpc::FramingKind::kBinary;
      copts.recv_timeout_ms = 0;  // mesh links may idle; Shutdown() unblocks
      copts.connect_timeout_ms = 5000;
      copts.connect_attempts = 50;
      copts.reconnect_backoff_ms = 100;
      std::string error;
      if (!link->client->Connect(host, static_cast<std::uint16_t>(port),
                                 &error, copts)) {
        return Fail("peer " + std::to_string(j) + " connect: " + error);
      }
      if (!link->client->SendLine("0 SITE " + std::to_string(options_.site))) {
        return Fail("peer " + std::to_string(j) + " SITE send failed");
      }
      out_[static_cast<std::size_t>(j)] = std::move(link);
    }

    // Barrier: every lower-indexed peer must have dialed in before alpha
    // measurement (their connects also carry the PONG path).
    {
      std::unique_lock<std::mutex> lock(mu_);
      const bool ok = cv_.wait_for(
          lock, std::chrono::milliseconds(options_.control_timeout_ms),
          [&] { return in_count_ == options_.site; });
      if (!ok) return Fail("timed out waiting for lower-indexed peers");
    }

    // Alpha: median of 5 RTTs per outgoing link, measured synchronously
    // before the reader thread takes over the receive path.
    double rtt_sum = 0.0;
    int links = 0;
    for (int j = options_.site + 1; j < config_.sites; ++j) {
      OutLink* link = out_[static_cast<std::size_t>(j)].get();
      std::vector<double> rtts;
      for (int k = 0; k < 5; ++k) {
        const auto t0 = std::chrono::steady_clock::now();
        if (!link->client->SendLine("0 PING " + std::to_string(k))) {
          return Fail("PING send failed");
        }
        std::string pong;
        if (!link->client->ReadLine(&pong)) return Fail("PONG read failed");
        const std::chrono::duration<double, std::milli> rtt =
            std::chrono::steady_clock::now() - t0;
        rtts.push_back(rtt.count());
      }
      std::sort(rtts.begin(), rtts.end());
      rtt_sum += rtts[rtts.size() / 2];
      ++links;
    }
    for (int j = options_.site + 1; j < config_.sites; ++j) {
      OutLink* link = out_[static_cast<std::size_t>(j)].get();
      link->reader = std::thread([this, link, j] { OutReader(link, j); });
    }

    std::string alpha = "0 ALPHA";
    wire::AppendKv(&alpha, "rtt_sum_ms", rtt_sum);
    wire::AppendKv(&alpha, "links", static_cast<std::int64_t>(links));
    if (!control_.SendLine(alpha)) return Fail("ALPHA send failed");
    return 0;
  }

  int OnStart(std::string_view payload) {
    if (engine_ == nullptr) return Fail("START before CONFIG");
    const auto kv = wire::ParseKv(payload);
    double warmup_ms = 0.0;
    double measure_ms = 0.0;
    if (!wire::KvDouble(kv, "warmup_ms", &warmup_ms) ||
        !wire::KvDouble(kv, "measure_ms", &measure_ms)) {
      return Fail("START missing window");
    }
    engine_->Start();
    // The window runs on its own thread so the control loop stays
    // responsive while the site measures (and while StopUsers drains a
    // contended system) — the coordinator can ask for a DUMP mid-window.
    window_thread_ = std::thread([this, warmup_ms, measure_ms] {
      RtClock::SleepRealMs(warmup_ms);
      engine_->ResetStats();
      RtClock::SleepRealMs(measure_ms);
      engine_->StopUsers();
      std::string drained = "0 DRAINED";
      wire::AppendKv(&drained, "site",
                     static_cast<std::int64_t>(options_.site));
      ControlSend(drained);
    });
    return 0;
  }

  int OnFinish(std::string_view payload) {
    if (engine_ == nullptr) return Fail("FINISH before CONFIG");
    // FINISH follows DRAINED, so the window thread has finished its work;
    // join it before draining the slave legs.
    if (window_thread_.joinable()) window_thread_.join();
    const auto kv = wire::ParseKv(payload);
    double timeout_ms = 10'000.0;
    wire::KvDouble(kv, "timeout_ms", &timeout_ms);
    const bool drained = engine_->Drain(timeout_ms);
    EngineReport report = engine_->Collect();
    report.drained = report.drained && drained;
    if (!ControlSend("0 REPORT" + report.Encode())) {
      return Fail("REPORT send failed");
    }
    return 0;
  }

  /// Reader for an outgoing (dialed) link: the peer pushes mesh frames back
  /// over the same connection.
  void OutReader(OutLink* link, int peer) {
    std::string line;
    while (link->client->ReadLine(&line)) {
      const std::string_view payload = StripFrameId(line);
      if (payload.empty()) continue;
      engine_->HandleMessage(peer, std::string(payload));
    }
    // A mesh link must outlive the run; a reader that exits outside
    // teardown means every further message from that peer is lost, so the
    // failure must be loud, not a silent wedge.
    if (!closing_.load()) {
      std::fprintf(stderr,
                   "carat_sited[site %d]: mesh link to site %d lost\n",
                   options_.site, peer);
    }
  }

  /// Engine Sender: route by peer index over whichever side owns the link.
  void MeshSend(int to, const std::string& body) {
    bool sent = false;
    if (to > options_.site) {
      OutLink* link = out_[static_cast<std::size_t>(to)].get();
      std::lock_guard<std::mutex> lock(link->send_mu);
      sent = link->client->SendLine("0 " + body);
    } else {
      rpc::MessageServer::ConnectionPtr conn;
      {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = in_.find(to);
        if (it != in_.end()) conn = it->second;
      }
      sent = conn != nullptr && conn->Send("0", body);
    }
    if (!sent && !closing_.load()) {
      std::fprintf(stderr,
                   "carat_sited[site %d]: mesh send to site %d failed (%s)\n",
                   options_.site, to,
                   std::string(body, 0, body.find(' ')).c_str());
    }
  }

  /// MessageServer handler: lower-indexed peers (after SITE) and load
  /// generator clients share the mesh port.
  void OnFrame(const rpc::MessageServer::ConnectionPtr& conn,
               const std::string& id, const std::string& body) {
    wire::TokenReader reader(body);
    std::string_view verb;
    if (!reader.Next(&verb)) return;
    if (verb == "SITE") {
      // A lower-indexed peer can dial in and identify itself *before* this
      // site has processed its own PEERS message (the coordinator fans
      // CONFIG+PEERS out to everyone, and peers race each other through the
      // handshake), so registration must not depend on any PEERS-derived
      // state — in_ is a map, not a config-sized vector, for exactly that
      // reason. Bounds are enforced at the barrier and by MeshSend lookups.
      int peer = -1;
      if (!reader.NextInt(&peer) || peer < 0 || peer > 1024) return;
      std::lock_guard<std::mutex> lock(mu_);
      auto& slot = in_[peer];
      if (slot != nullptr) return;  // duplicate claim
      slot = conn;
      conn_site_[conn->index()] = peer;
      ++in_count_;
      cv_.notify_all();
      return;
    }
    if (verb == "PING") {
      std::string_view k;
      reader.Next(&k);
      conn->Send("0", "PONG " + std::string(k));
      return;
    }
    if (verb == "TXN") {
      std::string_view type_token;
      int requests = 1;
      if (!reader.Next(&type_token) || !reader.NextInt(&requests)) return;
      SiteEngine* engine;
      {
        std::lock_guard<std::mutex> lock(mu_);
        engine = engine_.get();
      }
      if (engine == nullptr) return;
      engine->SubmitExternalTxn(
          type_token, requests,
          [conn, id](const std::string& reply) { conn->Send(id, reply); });
      return;
    }
    // Mesh traffic from an identified lower-indexed peer.
    int from = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = conn_site_.find(conn->index());
      if (it != conn_site_.end()) from = it->second;
    }
    if (from < 0 || engine_ == nullptr) return;
    engine_->HandleMessage(from, body);
  }

  const SiteDaemonOptions options_;
  rpc::Client control_;
  std::mutex control_send_mu_;
  std::thread window_thread_;
  std::unique_ptr<rpc::MessageServer> server_;
  wire::DistConfig config_;
  std::unique_ptr<SiteEngine> engine_;

  std::mutex mu_;  ///< guards engine_ pointer, in_, conn_site_, in_count_
  std::condition_variable cv_;
  std::vector<std::unique_ptr<OutLink>> out_;  ///< by peer index (> site)
  /// Dialed-in peers by index; a map because SITE frames may land before
  /// PEERS tells this site how many peers exist.
  std::unordered_map<int, rpc::MessageServer::ConnectionPtr> in_;
  std::unordered_map<std::uint64_t, int> conn_site_;
  int in_count_ = 0;
  std::atomic<bool> closing_{false};
};

}  // namespace

int RunSiteDaemon(const SiteDaemonOptions& options) {
  return SiteDaemon(options).Run();
}

}  // namespace carat::dist
