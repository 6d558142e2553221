#include "dist/coordinator.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "carat/testbed.h"
#include "rpc/connection_set.h"

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

using ConnId = rpc::ConnectionSet::ConnId;
using Clock = rpc::ConnectionSet::Clock;

/// Tracks the handshake state of one spawned site.
struct SiteState {
  ConnId conn = 0;  ///< control link, once HELLO registered it
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
  explicit Coordinator(const DistRunOptions& options)
      : options_(options),
        net_(
            [this](ConnId conn, const std::string&, const std::string& body) {
              OnFrame(conn, body);
            },
            [this](ConnId conn, const std::string& reason) {
              OnClose(conn, reason);
            }) {}

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
    if (!net_.Listen(&error)) {
      result.error = "control listen: " + error;
      return result;
    }

    if (!Spawn(sited, &result)) return Abort(std::move(result));

    // HELLO barrier: every site is up and has bound its mesh port.
    if (!WaitAll([&](const SiteState& s) { return s.mesh_port >= 0; },
                 30'000)) {
      return Stuck(std::move(result), "timed out waiting for site HELLOs");
    }

    // Backend homogeneity guard: the mesh executes one global CC protocol,
    // so every site's HELLO must name the configured backend.
    {
      std::vector<std::string> site_cc;
      for (const SiteState& s : states_) site_cc.push_back(s.cc);
      result.error = wire::CheckMeshBackends(site_cc, options_.config.cc);
      if (!result.error.empty()) return Abort(std::move(result));
    }

    // CONFIG + PEERS to every site; sites then build their mesh.
    std::vector<std::string> endpoints;
    for (const SiteState& s : states_) {
      endpoints.push_back("127.0.0.1:" + std::to_string(s.mesh_port));
    }
    {
      const std::string config_msg = "CONFIG" + options_.config.Encode();
      std::string peers_msg = "PEERS";
      for (const std::string& ep : endpoints) peers_msg += " " + ep;
      for (SiteState& s : states_) {
        if (!net_.Send(s.conn, "0", config_msg) ||
            !net_.Send(s.conn, "0", peers_msg)) {
          result.error = "control send failed";
        }
      }
    }
    if (!result.error.empty()) return Abort(std::move(result));

    // ALPHA barrier: the mesh is fully connected and measured.
    if (!WaitAll([&](const SiteState& s) { return s.alpha; }, 60'000)) {
      return Stuck(std::move(result),
                   "timed out waiting for ALPHA (mesh build failed?)");
    }
    {
      double rtt_sum = 0.0;
      int links = 0;
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
      for (SiteState& s : states_) net_.Send(s.conn, "0", start);
    }
    if (options_.during_measure) options_.during_measure(endpoints);

    const double window_ms = options_.warmup_real_ms + options_.measure_real_ms;
    if (!WaitAll([&](const SiteState& s) { return s.drained; },
                 static_cast<int>(window_ms) + 60'000)) {
      return Stuck(std::move(result), "timed out waiting for DRAINED");
    }

    // FINISH: everyone has stopped submitting; drain in-flight legs, audit,
    // report.
    {
      std::string finish = "FINISH";
      wire::AppendKv(&finish, "timeout_ms", options_.drain_timeout_ms);
      for (SiteState& s : states_) net_.Send(s.conn, "0", finish);
    }
    if (!WaitAll([&](const SiteState& s) { return s.reported; },
                 static_cast<int>(options_.drain_timeout_ms) + 30'000)) {
      return Stuck(std::move(result), "timed out waiting for REPORT");
    }
    for (SiteState& s : states_) {
      net_.Send(s.conn, "0", "SHUTDOWN");
      result.reports.push_back(s.report);
    }
    // Every REPORT is in, so the sites' closing links are expected now.
    if (!Reap(10'000)) {
      result.error = "site process did not exit cleanly";
      return Abort(std::move(result));
    }

    Aggregate(&result);
    if (options_.check) Check(&result);
    result.ok = result.error.empty();
    return result;
  }

 private:
  bool Spawn(const std::string& sited, DistRunResult* result) {
    const std::string coord_arg =
        "127.0.0.1:" + std::to_string(net_.port());
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

  /// Asks every site still connected to print its wait state to stderr
  /// (DUMP), serving the links while the sites write their snapshots.
  void DumpSites() {
    for (SiteState& s : states_) {
      if (s.conn != 0) net_.Send(s.conn, "0", "DUMP");
    }
    const auto deadline = Clock::now() + std::chrono::milliseconds(1'500);
    while (Clock::now() < deadline) net_.Poll(deadline);
  }

  /// Fails a run whose handshake did not complete: names the first site
  /// whose control link closed before its REPORT, if one did, else reports
  /// `timeout`. Leaves a DUMP from every surviving site behind.
  DistRunResult Stuck(DistRunResult result, const std::string& timeout) {
    result.error = lost_.empty() ? timeout : lost_;
    DumpSites();
    return Abort(std::move(result));
  }

  DistRunResult Abort(DistRunResult result) {
    for (const pid_t pid : pids_) ::kill(pid, SIGKILL);
    Reap(5'000);
    return result;
  }

  /// The site whose control link `conn` is, or -1.
  int SiteOf(ConnId conn) const {
    for (std::size_t i = 0; i < states_.size(); ++i) {
      if (states_[i].conn == conn) return static_cast<int>(i);
    }
    return -1;
  }

  void OnFrame(ConnId conn, const std::string& body) {
    wire::TokenReader reader(body);
    std::string_view verb;
    if (!reader.Next(&verb)) return;
    const auto kv = wire::ParseKv(body);
    if (verb == "HELLO") {
      // A HELLO with a site index or port out of range, for a site already
      // registered, or on a registered link is not a spawned site's.
      int site = -1;
      int port = -1;
      if (!wire::KvInt(kv, "site", &site) || !wire::KvInt(kv, "port", &port) ||
          site < 0 || site >= static_cast<int>(states_.size()) || port < 1 ||
          port > 65535 || states_[static_cast<std::size_t>(site)].conn != 0 ||
          SiteOf(conn) >= 0) {
        net_.Close(conn);
        return;
      }
      SiteState& state = states_[static_cast<std::size_t>(site)];
      state.conn = conn;
      state.mesh_port = port;
      const auto cc_it = kv.find("cc");
      if (cc_it != kv.end()) state.cc = cc_it->second;
      return;
    }
    const int site = SiteOf(conn);
    if (site < 0) return;
    SiteState& state = states_[static_cast<std::size_t>(site)];
    if (verb == "ALPHA") {
      wire::KvDouble(kv, "rtt_sum_ms", &state.rtt_sum_ms);
      wire::KvInt(kv, "links", &state.links);
      state.alpha = true;
    } else if (verb == "DRAINED") {
      state.drained = true;
    } else if (verb == "REPORT") {
      if (EngineReport::Decode(body, &state.report)) state.reported = true;
    }
  }

  /// A site's control link closing before its REPORT means the site died:
  /// the run has failed, and the first such site is named.
  void OnClose(ConnId conn, const std::string& reason) {
    net_.Close(conn);  // a site's EOF leaves its connection open for output
    const int site = SiteOf(conn);
    if (site < 0) return;
    SiteState& state = states_[static_cast<std::size_t>(site)];
    state.conn = 0;
    if (!state.reported && lost_.empty()) {
      lost_ = "site " + std::to_string(site) +
              " control link closed before REPORT (" + reason + ")";
    }
  }

  /// Serves the control links until every site satisfies `pred`. False on
  /// timeout, or as soon as a site's link closed before its REPORT.
  bool WaitAll(const std::function<bool(const SiteState&)>& pred,
               int timeout_ms) {
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      if (!lost_.empty()) return false;
      bool all = true;
      for (const SiteState& s : states_) all = all && s.conn != 0 && pred(s);
      if (all) return true;
      if (Clock::now() >= deadline || !net_.Poll(deadline)) return false;
    }
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
  rpc::ConnectionSet net_;
  std::vector<pid_t> pids_;
  std::vector<SiteState> states_;
  std::string lost_;  ///< the first site lost before its REPORT
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
