// Tests of txn::SiteProtocol's plan builder, which both runtimes share: the
// in-process testbed and every carat_sited build their users' request plans
// through it.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "txn/node.h"
#include "txn/protocol.h"
#include "util/random.h"
#include "workload/spec.h"

namespace carat::txn {
namespace {

// A runtime for plan building only: nothing here ships a leg or a probe.
class NoTransport final : public Runtime {
 public:
  sim::Task<bool> Ship(const Leg&) override { co_return false; }
  void ShipProbe(int, const Probe&) override {}
  void CommitPoint(const std::vector<RequestSpec>&) override {}
};

struct Site0 {
  explicit Site0(const model::ModelInput& in)
      : input(in),
        kernel(static_cast<int>(in.sites.size()), /*num_shards=*/1),
        node(sim::SitePort{&kernel, 0}, 0, input.sites[0]),
        protocol(input, node, transport) {}

  model::ModelInput input;
  sim::ShardedKernel kernel;
  Node node;
  NoTransport transport;
  SiteProtocol protocol;
};

TEST(SiteProtocol, ConsecutivePlansOfOneUserVisitEveryRemoteNode) {
  // The round-robin cursor lives with the user, not the plan: restarting it
  // per plan sent every single-remote plan to the lowest-numbered peer.
  Site0 site(workload::MakeMB8(8, 4).ToModelInput());
  util::Rng rng(7);
  int remote_rr = 0;
  std::set<int> remote_nodes;
  for (int i = 0; i < 3; ++i) {
    const std::vector<RequestSpec> plan = site.protocol.BuildPlan(
        model::TxnType::kDUC, /*local=*/3, /*remote=*/1,
        /*records_per_request=*/4, &remote_rr, &rng);
    ASSERT_EQ(plan.size(), 4u);
    int remote = 0;
    for (const RequestSpec& req : plan) {
      EXPECT_TRUE(req.update);
      EXPECT_EQ(req.records.size(), 4u);
      if (req.node != 0) {
        ++remote;
        remote_nodes.insert(req.node);
      }
    }
    EXPECT_EQ(remote, 1);
  }
  EXPECT_EQ(remote_nodes, (std::set<int>{1, 2, 3}));
}

TEST(SiteProtocol, RemoteRecordsFollowTheRemoteSitesHotSpot) {
  // Records are picked with the executing site's own skew.
  model::ModelInput input = workload::MakeMB8(8, 2).ToModelInput();
  input.sites[1].hot_data_fraction = 0.1;
  input.sites[1].hot_access_fraction = 1.0;
  Site0 site(input);
  const auto hot_records =
      static_cast<db::RecordId>(0.1 * input.sites[1].total_records());
  util::Rng rng(11);
  int remote_rr = 0;
  int remote_records = 0;
  for (int i = 0; i < 20; ++i) {
    for (const RequestSpec& req : site.protocol.BuildPlan(
             model::TxnType::kDROC, 1, 1, 4, &remote_rr, &rng)) {
      if (req.node != 1) continue;
      for (const db::RecordId r : req.records) {
        EXPECT_LT(r, hot_records);
        ++remote_records;
      }
    }
  }
  EXPECT_EQ(remote_records, 80);
}

}  // namespace
}  // namespace carat::txn
