#include "dist/coordinator.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "carat/testbed.h"
#include "rpc/message_server.h"

namespace carat::dist {

namespace {

std::string ExeDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return std::string();
  buf[n] = '\0';
  const std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

bool Executable(const std::string& path) {
  return !path.empty() && ::access(path.c_str(), X_OK) == 0;
}

/// Tracks the handshake state of one spawned site.
struct SiteState {
  rpc::MessageServer::ConnectionPtr conn;
  int mesh_port = -1;
  /// CC backend the site reported in HELLO. Absent on the wire means a
  /// pre-backend daemon, which always ran 2PL.
  std::string cc = "2pl";
  bool alpha = false;
  double rtt_sum_ms = 0.0;
  int links = 0;
  bool drained = false;
  bool reported = false;
  EngineReport report;
};

class Coordinator {
 public:
  explicit Coordinator(const DistRunOptions& options) : options_(options) {}

  DistRunResult Run() {
    DistRunResult result;
    const int sites = options_.config.sites;
    states_.resize(static_cast<std::size_t>(sites));

    std::string sited = options_.sited_bin;
    if (sited.empty()) sited = ResolveSitedBinary();
    if (!Executable(sited)) {
      result.error = "carat_sited binary not found (set CARAT_SITED_BIN)";
      return result;
    }

    std::string error;
    server_ = std::make_unique<rpc::MessageServer>(
        rpc::MessageServer::Options{},
        [this](const rpc::MessageServer::ConnectionPtr& conn,
               const std::string& id, const std::string& body) {
          (void)id;
          OnFrame(conn, body);
        });
    if (!server_->Start(&error)) {
      result.error = "control listen: " + error;
      return result;
    }

    if (!Spawn(sited, &result)) return Abort(std::move(result));

    // HELLO barrier: every site is up and has bound its mesh port.
    if (!WaitAll([&](const SiteState& s) { return s.mesh_port >= 0; },
                 30'000)) {
      result.error = "timed out waiting for site HELLOs";
      return Abort(std::move(result));
    }

    // Backend homogeneity guard: the mesh executes one global CC protocol,
    // so every site's HELLO must name the configured backend.
    {
      std::vector<std::string> site_cc;
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (const SiteState& s : states_) site_cc.push_back(s.cc);
      }
      result.error = wire::CheckMeshBackends(site_cc, options_.config.cc);
      if (!result.error.empty()) return Abort(std::move(result));
    }

    // CONFIG + PEERS to every site; sites then build their mesh.
    std::vector<std::string> endpoints;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const SiteState& s : states_) {
        endpoints.push_back("127.0.0.1:" + std::to_string(s.mesh_port));
      }
    }
    {
      const std::string config_msg = "CONFIG" + options_.config.Encode();
      std::string peers_msg = "PEERS";
      for (const std::string& ep : endpoints) peers_msg += " " + ep;
      std::lock_guard<std::mutex> lock(mu_);
      for (SiteState& s : states_) {
        if (!s.conn->Send("0", config_msg) || !s.conn->Send("0", peers_msg)) {
          result.error = "control send failed";
        }
      }
    }
    if (!result.error.empty()) return Abort(std::move(result));

    // ALPHA barrier: the mesh is fully connected and measured.
    if (!WaitAll([&](const SiteState& s) { return s.alpha; }, 60'000)) {
      result.error = "timed out waiting for ALPHA (mesh build failed?)";
      return Abort(std::move(result));
    }
    {
      double rtt_sum = 0.0;
      int links = 0;
      std::lock_guard<std::mutex> lock(mu_);
      for (const SiteState& s : states_) {
        rtt_sum += s.rtt_sum_ms;
        links += s.links;
      }
      if (links > 0) result.alpha_rtt_real_ms = rtt_sum / links;
      result.alpha_virtual_ms =
          result.alpha_rtt_real_ms / 2.0 / options_.config.scale;
    }

    // START: sites time their own windows so the coordinator's scheduling
    // hiccups cannot shrink anyone's measurement.
    {
      std::string start = "START";
      wire::AppendKv(&start, "warmup_ms", options_.warmup_real_ms);
      wire::AppendKv(&start, "measure_ms", options_.measure_real_ms);
      std::lock_guard<std::mutex> lock(mu_);
      for (SiteState& s : states_) s.conn->Send("0", start);
    }
    if (options_.during_measure) options_.during_measure(endpoints);

    const double window_ms = options_.warmup_real_ms + options_.measure_real_ms;
    if (!WaitAll([&](const SiteState& s) { return s.drained; },
                 static_cast<int>(window_ms) + 60'000)) {
      result.error = "timed out waiting for DRAINED";
      DumpSites();
      return Abort(std::move(result));
    }

    // FINISH: everyone has stopped submitting; drain in-flight legs, audit,
    // report.
    {
      std::string finish = "FINISH";
      wire::AppendKv(&finish, "timeout_ms", options_.drain_timeout_ms);
      std::lock_guard<std::mutex> lock(mu_);
      for (SiteState& s : states_) s.conn->Send("0", finish);
    }
    if (!WaitAll([&](const SiteState& s) { return s.reported; },
                 static_cast<int>(options_.drain_timeout_ms) + 30'000)) {
      result.error = "timed out waiting for REPORT";
      DumpSites();
      return Abort(std::move(result));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (SiteState& s : states_) s.conn->Send("0", "SHUTDOWN");
      for (const SiteState& s : states_) result.reports.push_back(s.report);
    }
    if (!Reap(10'000)) {
      result.error = "site process did not exit cleanly";
      return Abort(std::move(result));
    }
    server_->Shutdown();

    Aggregate(&result);
    if (options_.check) Check(&result);
    result.ok = result.error.empty();
    return result;
  }

 private:
  bool Spawn(const std::string& sited, DistRunResult* result) {
    const std::string coord_arg =
        "127.0.0.1:" + std::to_string(server_->port());
    for (int i = 0; i < options_.config.sites; ++i) {
      const std::string site_arg = std::to_string(i);
      const pid_t pid = ::fork();
      if (pid < 0) {
        result->error = "fork failed";
        return false;
      }
      if (pid == 0) {
        ::execl(sited.c_str(), "carat_sited", "--coordinator",
                coord_arg.c_str(), "--site", site_arg.c_str(), "--cc",
                options_.config.cc.c_str(), static_cast<char*>(nullptr));
        ::_exit(127);  // exec failed
      }
      pids_.push_back(pid);
    }
    return true;
  }

  /// Waits for every child; SIGKILLs stragglers past the deadline.
  bool Reap(int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    bool clean = true;
    for (const pid_t pid : pids_) {
      for (;;) {
        int status = 0;
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid) {
          clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
          break;
        }
        if (r < 0) break;  // already reaped / gone
        if (std::chrono::steady_clock::now() > deadline) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, &status, 0);
          clean = false;
          break;
        }
        ::usleep(10'000);
      }
    }
    pids_.clear();
    return clean;
  }

  /// Asks every site to print its wait state to stderr (DUMP) before the
  /// run is aborted, so a stuck distributed run leaves a diagnosis behind.
  void DumpSites() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (SiteState& s : states_) {
        if (s.conn != nullptr) s.conn->Send("0", "DUMP");
      }
    }
    ::usleep(1'500'000);  // give the sites time to write their snapshots
  }

  DistRunResult Abort(DistRunResult result) {
    for (const pid_t pid : pids_) ::kill(pid, SIGKILL);
    Reap(5'000);
    if (server_ != nullptr) server_->Shutdown();
    return result;
  }

  void OnFrame(const rpc::MessageServer::ConnectionPtr& conn,
               const std::string& body) {
    wire::TokenReader reader(body);
    std::string_view verb;
    if (!reader.Next(&verb)) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (verb == "HELLO") {
      const auto kv = wire::ParseKv(body);
      int site = -1;
      int port = -1;
      if (!wire::KvInt(kv, "site", &site) || !wire::KvInt(kv, "port", &port) ||
          site < 0 || site >= static_cast<int>(states_.size())) {
        return;
      }
      states_[static_cast<std::size_t>(site)].conn = conn;
      states_[static_cast<std::size_t>(site)].mesh_port = port;
      const auto cc_it = kv.find("cc");
      if (cc_it != kv.end()) {
        states_[static_cast<std::size_t>(site)].cc = cc_it->second;
      }
      conn_site_[conn->index()] = site;
      cv_.notify_all();
      return;
    }
    const auto it = conn_site_.find(conn->index());
    if (it == conn_site_.end()) return;
    SiteState& state = states_[static_cast<std::size_t>(it->second)];
    if (verb == "ALPHA") {
      const auto kv = wire::ParseKv(body);
      wire::KvDouble(kv, "rtt_sum_ms", &state.rtt_sum_ms);
      wire::KvInt(kv, "links", &state.links);
      state.alpha = true;
    } else if (verb == "DRAINED") {
      state.drained = true;
    } else if (verb == "REPORT") {
      if (EngineReport::Decode(body, &state.report)) state.reported = true;
    }
    cv_.notify_all();
  }

  bool WaitAll(const std::function<bool(const SiteState&)>& pred,
               int timeout_ms) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
      for (const SiteState& s : states_) {
        if (s.conn == nullptr || !pred(s)) return false;
      }
      return true;
    });
  }

  void Aggregate(DistRunResult* result) {
    double vms_sum = 0.0;
    double response_sum = 0.0;
    result->all_drained = true;
    result->all_audits_ok = true;
    for (const EngineReport& r : result->reports) {
      vms_sum += r.measured_vms;
      result->global_deadlocks += r.global_deadlocks;
      result->messages_sent += r.messages_sent;
      result->ext_commits += r.ext_commits;
      result->all_drained = result->all_drained && r.drained;
      result->all_audits_ok = result->all_audits_ok && r.audit_ok;
      for (const TypeCounters& t : r.types) {
        if (!t.present) continue;
        result->commits += t.commits;
        result->submissions += t.submissions;
        result->aborts += t.aborts;
        response_sum += t.response_sum_vms;
      }
    }
    if (!result->reports.empty()) {
      result->measured_vms = vms_sum / result->reports.size();
    }
    if (result->measured_vms > 0) {
      result->dist_txn_per_s =
          static_cast<double>(result->commits) / result->measured_vms * 1000.0;
    }
    if (result->commits > 0) {
      result->dist_response_ms =
          response_sum / static_cast<double>(result->commits);
    }
    if (result->submissions > 0) {
      result->dist_restart_prob = static_cast<double>(result->aborts) /
                                  static_cast<double>(result->submissions);
    }
  }

  void Check(DistRunResult* result) {
    model::ModelInput input = options_.config.ToModelInput();
    input.comm_delay_ms = result->alpha_virtual_ms;
    TestbedOptions topts;
    topts.seed = options_.config.seed;
    topts.warmup_ms = options_.ref_warmup_vms;
    topts.measure_ms = options_.ref_measure_vms;
    const TestbedResult ref = RunTestbed(input, topts);
    if (!ref.ok) {
      result->error = "reference run failed: " + ref.error;
      return;
    }
    std::uint64_t ref_commits = 0;
    std::uint64_t ref_submissions = 0;
    std::uint64_t ref_aborts = 0;
    double ref_response_weighted = 0.0;
    for (const NodeResult& node : ref.nodes) {
      for (const TypeResult& t : node.types) {
        if (!t.present) continue;
        ref_commits += t.commits;
        ref_submissions += t.submissions;
        ref_aborts += t.aborts;
        ref_response_weighted +=
            t.response_ms * static_cast<double>(t.commits);
      }
    }
    result->checked = true;
    result->ref_txn_per_s = ref.TotalTxnPerSec();
    if (ref_commits > 0) {
      result->ref_response_ms =
          ref_response_weighted / static_cast<double>(ref_commits);
    }
    if (ref_submissions > 0) {
      result->ref_restart_prob = static_cast<double>(ref_aborts) /
                                 static_cast<double>(ref_submissions);
    }
    const auto rel = [](double a, double b) {
      return b > 0 ? std::abs(a - b) / b : 0.0;
    };
    result->throughput_rel_err = rel(result->dist_txn_per_s,
                                     result->ref_txn_per_s);
    result->response_rel_err = rel(result->dist_response_ms,
                                   result->ref_response_ms);
    result->restart_abs_err =
        std::abs(result->dist_restart_prob - result->ref_restart_prob);
    result->within_tolerance =
        result->throughput_rel_err <= options_.tol_throughput_rel &&
        result->response_rel_err <= options_.tol_response_rel &&
        result->restart_abs_err <= options_.tol_restart_abs;
  }

  const DistRunOptions options_;
  std::unique_ptr<rpc::MessageServer> server_;
  std::vector<pid_t> pids_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<SiteState> states_;
  std::unordered_map<std::uint64_t, int> conn_site_;
};

}  // namespace

std::string ResolveSitedBinary() {
  if (const char* env = std::getenv("CARAT_SITED_BIN")) {
    if (Executable(env)) return env;
  }
  const std::string dir = ExeDir();
  if (dir.empty()) return std::string();
  if (Executable(dir + "/carat_sited")) return dir + "/carat_sited";
  if (Executable(dir + "/../tools/carat_sited")) {
    return dir + "/../tools/carat_sited";
  }
  return std::string();
}

DistRunResult RunDistributed(const DistRunOptions& options) {
  return Coordinator(options).Run();
}

}  // namespace carat::dist
