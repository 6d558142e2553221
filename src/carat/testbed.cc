#include "carat/testbed.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "lock/lock_manager_set.h"
#include "net/network.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "txn/node.h"
#include "txn/protocol.h"
#include "util/random.h"

namespace carat {

namespace {

using model::ClassParams;
using model::TxnType;
using txn::Node;
using txn::RequestSpec;

// True when some class actually ships requests to other sites; only then can
// any event cross a site boundary (REMDO/2PC/abort messages and the global
// probes that chase distributed wait chains).
bool IsDistributed(const model::ModelInput& input) {
  for (const model::SiteParams& site : input.sites) {
    for (TxnType t :
         {TxnType::kLRO, TxnType::kLU, TxnType::kDROC, TxnType::kDUC}) {
      const ClassParams& c = site.Class(t);
      if (c.population > 0 && c.remote_requests > 0) return true;
    }
  }
  return false;
}

// Shard count actually used for the run. Shards never exchange events, so a
// workload that sends any cross-site message runs on one thread.
int PlannedShards(const model::ModelInput& input, int requested) {
  if (IsDistributed(input)) return 1;
  int shards = requested;
  if (shards <= 0) {
    shards = static_cast<int>(std::thread::hardware_concurrency());
    if (shards <= 0) shards = 1;
  }
  return std::clamp(shards, 1, static_cast<int>(input.sites.size()));
}

// The in-process runtime: every site's txn::SiteProtocol in one virtual-time
// kernel. A leg or a probe changes site only through network hops, and a
// coroutine touches only the state of the site it is currently at.
class Testbed final : public txn::Runtime {
 public:
  Testbed(const model::ModelInput& input, const TestbedOptions& options)
      : input_(input),
        options_(options),
        kernel_(static_cast<int>(input.sites.size()),
                PlannedShards(input, options.shards)),
        network_(kernel_, input.comm_delay_ms),
        locks_(kernel_),
        root_rng_(options.seed) {
    locks_.set_victim_policy(options.victim_policy);
    for (std::size_t i = 0; i < input.sites.size(); ++i) {
      const int index = static_cast<int>(i);
      nodes_.push_back(std::make_unique<Node>(sim::SitePort{&kernel_, index},
                                              index, input.sites[i],
                                              &locks_.at(index)));
      sites_.push_back(std::make_unique<txn::SiteProtocol>(
          input, *nodes_.back(), *this));
      shadow_.emplace_back(nodes_.back()->database().num_records(), 0);
    }
  }

  // The user, leg and probe processes still parked when the run ends
  // reference the nodes, protocols and detectors declared after kernel_;
  // end them while those are alive.
  ~Testbed() { kernel_.DestroyProcesses(); }

  TestbedResult Run() {
    SpawnUsers();
    for (auto& site : sites_) site->StartWatchdog();
    kernel_.RunUntil(options_.warmup_ms);
    ResetStats();
    kernel_.RunUntil(options_.warmup_ms + options_.measure_ms);
    return Collect();
  }

 private:
  // ---- txn::Runtime ---------------------------------------------------------

  sim::Task<bool> Ship(const txn::Leg& leg) override {
    co_await network_.Hop(leg.node);
    const bool ok = co_await sites_[static_cast<std::size_t>(leg.node)]->Serve(
        leg);
    co_await network_.Hop(leg.home);
    co_return ok;
  }

  void ShipProbe(int site, const txn::Probe& probe) override {
    txn::GlobalDeadlockDetector* detector =
        &sites_[static_cast<std::size_t>(site)]->detector();
    network_.Send(site, [detector, probe] { detector->Receive(probe); });
  }

  // Credits committed updates to the audit counters at the coordinator's
  // commit record (the 2PC decision point): the end-of-run audit treats
  // that record as the global truth for in-doubt participants.
  void CommitPoint(const std::vector<RequestSpec>& plan) override {
    for (const RequestSpec& req : plan) {
      if (!req.update) continue;
      for (const db::RecordId r : req.records) ++shadow_[req.node][r];
    }
  }

  // ---- workload -----------------------------------------------------------

  void SpawnUsers() {
    for (std::size_t i = 0; i < input_.sites.size(); ++i) {
      const model::SiteParams& site = input_.sites[i];
      for (TxnType t : {TxnType::kLRO, TxnType::kLU, TxnType::kDROC,
                        TxnType::kDUC}) {
        for (int u = 0; u < site.Class(t).population; ++u) {
          auto driver = std::make_unique<txn::UserDriver>();
          driver->home = static_cast<int>(i);
          driver->type = t;
          driver->rng = root_rng_.Fork();
          UserProcess(sites_[i].get(), driver.get());
          drivers_.push_back(std::move(driver));
        }
      }
    }
  }

  static sim::Process UserProcess(txn::SiteProtocol* site,
                                  txn::UserDriver* driver) {
    co_await site->RunUser(driver, /*stop=*/nullptr);
  }

  // ---- measurement ---------------------------------------------------------

  void ResetStats() {
    for (auto& node : nodes_) node->ResetStats();
    for (auto& driver : drivers_) driver->ResetStats();
    network_.ResetStats();
    for (auto& site : sites_) site->detector().ResetStats();
    events_at_reset_ = kernel_.events_executed();
  }

  bool AuditDatabase() const {
    // Global commit truth: a transaction is committed iff some node (in
    // practice its coordinator) holds its commit record - the answer a real
    // 2PC recovery would get for an in-doubt prepared transaction.
    const auto committed_anywhere = [this](wal::TxnId t) {
      for (const auto& node : nodes_) {
        if (node->log().IsCommitted(t)) return true;
      }
      return false;
    };
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      // Undo in-flight transactions on a copy, then compare with the audit
      // counters: exactly the committed increments must remain.
      db::Database copy = nodes_[i]->database();
      nodes_[i]->log().Recover(&copy, committed_anywhere);
      for (db::RecordId r = 0; r < copy.num_records(); ++r) {
        if (copy.Read(r) != static_cast<db::RecordValue>(shadow_[i][r])) {
          return false;
        }
      }
    }
    return true;
  }

  TestbedResult Collect() {
    TestbedResult result;
    result.ok = true;
    result.measured_ms = options_.measure_ms;
    result.events = kernel_.events_executed() - events_at_reset_;
    result.network_messages = network_.messages();
    for (auto& site : sites_) {
      result.global_deadlocks += site->detector().global_deadlocks();
      result.probes_sent += site->detector().probes_sent();
    }
    result.database_consistent = AuditDatabase();

    const double window_s = options_.measure_ms / 1000.0;
    result.nodes.resize(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      Node& node = *nodes_[i];
      NodeResult& nr = result.nodes[i];
      nr.name = node.params().name;
      nr.cpu_utilization = node.cpu().BusyMs() / options_.measure_ms;
      nr.db_disk_utilization = node.db_disk().BusyMs() / options_.measure_ms;
      std::uint64_t ios = node.db_disk().completions();
      if (node.has_separate_log_disk()) {
        nr.log_disk_utilization =
            node.log_disk().BusyMs() / options_.measure_ms;
        ios += node.log_disk().completions();
      }
      nr.dio_per_s = static_cast<double>(ios) / window_s;
      nr.lock_requests = node.locks().requests();
      nr.lock_blocks = node.locks().blocks();
      nr.local_deadlocks = node.locks().local_deadlocks();
      nr.buffer_hit_ratio =
          node.buffer() != nullptr ? node.buffer()->HitRatio() : 0.0;
      nr.dm_pool_waits =
          node.dm_pool() != nullptr ? node.dm_pool()->waits() : 0;
    }

    for (const auto& driver : drivers_) {
      NodeResult& nr = result.nodes[driver->home];
      TypeResult& tr = nr.types[Index(driver->type)];
      tr.present = true;
      tr.commits += driver->commits;
      tr.submissions += driver->submissions;
      tr.aborts += driver->aborts;
      // Aggregate per-cycle times as commit-weighted means.
      tr.response_ms += driver->response_ms.Mean() * driver->commits;
      tr.lock_wait_ms += driver->lock_wait_ms.Mean() * driver->commits;
      tr.remote_wait_ms += driver->remote_wait_ms.Mean() * driver->commits;
      tr.commit_wait_ms += driver->commit_wait_ms.Mean() * driver->commits;
      nr.records_per_s += driver->records_committed / window_s;
    }
    for (NodeResult& nr : result.nodes) {
      for (TypeResult& tr : nr.types) {
        if (!tr.present) continue;
        tr.throughput_per_s = tr.commits / window_s;
        tr.abort_prob = tr.submissions > 0
                            ? static_cast<double>(tr.aborts) / tr.submissions
                            : 0.0;
        if (tr.commits > 0) {
          tr.response_ms /= tr.commits;
          tr.lock_wait_ms /= tr.commits;
          tr.remote_wait_ms /= tr.commits;
          tr.commit_wait_ms /= tr.commits;
        } else {
          tr.response_ms = tr.lock_wait_ms = tr.remote_wait_ms =
              tr.commit_wait_ms = 0.0;
        }
        nr.txn_per_s += tr.throughput_per_s;
      }
    }
    return result;
  }

  const model::ModelInput& input_;
  TestbedOptions options_;
  sim::ShardedKernel kernel_;
  net::Network network_;
  lock::LockManagerSet locks_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<txn::SiteProtocol>> sites_;
  // Committed update counts: [node][record]. A multi-shard run is local
  // only, so a node's counts are written only from its own shard.
  std::vector<std::vector<std::uint32_t>> shadow_;
  std::vector<std::unique_ptr<txn::UserDriver>> drivers_;
  util::Rng root_rng_;
  std::uint64_t events_at_reset_ = 0;
};

void AppendHexU64(std::string* out, std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  *out += buf;
  *out += ' ';
}

void AppendBitsF64(std::string* out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendHexU64(out, bits);
}

}  // namespace

double TestbedResult::TotalTxnPerSec() const {
  double total = 0.0;
  for (const NodeResult& n : nodes) total += n.txn_per_s;
  return total;
}

double TestbedResult::TotalRecordsPerSec() const {
  double total = 0.0;
  for (const NodeResult& n : nodes) total += n.records_per_s;
  return total;
}

std::string TestbedResultFingerprint(const TestbedResult& result) {
  std::string out;
  out += result.ok ? "ok " : "fail ";
  out += result.error;
  out += '\n';
  AppendBitsF64(&out, result.measured_ms);
  AppendHexU64(&out, result.events);
  AppendHexU64(&out, result.network_messages);
  AppendHexU64(&out, result.global_deadlocks);
  AppendHexU64(&out, result.probes_sent);
  out += result.database_consistent ? "consistent" : "INCONSISTENT";
  out += '\n';
  for (const NodeResult& nr : result.nodes) {
    out += nr.name;
    out += ' ';
    AppendBitsF64(&out, nr.cpu_utilization);
    AppendBitsF64(&out, nr.db_disk_utilization);
    AppendBitsF64(&out, nr.log_disk_utilization);
    AppendBitsF64(&out, nr.dio_per_s);
    AppendBitsF64(&out, nr.txn_per_s);
    AppendBitsF64(&out, nr.records_per_s);
    AppendHexU64(&out, nr.lock_requests);
    AppendHexU64(&out, nr.lock_blocks);
    AppendHexU64(&out, nr.local_deadlocks);
    AppendBitsF64(&out, nr.buffer_hit_ratio);
    AppendHexU64(&out, nr.dm_pool_waits);
    for (const TypeResult& tr : nr.types) {
      out += tr.present ? "+" : "-";
      AppendHexU64(&out, tr.commits);
      AppendHexU64(&out, tr.submissions);
      AppendHexU64(&out, tr.aborts);
      AppendBitsF64(&out, tr.throughput_per_s);
      AppendBitsF64(&out, tr.abort_prob);
      AppendBitsF64(&out, tr.response_ms);
      AppendBitsF64(&out, tr.lock_wait_ms);
      AppendBitsF64(&out, tr.remote_wait_ms);
      AppendBitsF64(&out, tr.commit_wait_ms);
    }
    out += '\n';
  }
  return out;
}

TestbedResult RunTestbed(const model::ModelInput& input,
                         const TestbedOptions& options) {
  TestbedResult failure;
  if (!input.Validate(&failure.error)) return failure;
  Testbed testbed(input, options);
  return testbed.Run();
}

}  // namespace carat
