// The site network of workload MB8 at n = 12 (site 0 of 2), with demands
// rounded from the model's fixed point: six chains of population 2, no think
// time, centers CPU, DISK, LW, RW, CW, UT. It has the (6 centers, 2
// queueing) shape of every paper workload's site network, and with its
// chains and populations cut to theirs it stands in for the other
// workloads' sites. Shared by the micro benchmarks, perf_solver and
// mva_test.

#ifndef CARAT_BENCH_MB8_SITE_NETWORK_H_
#define CARAT_BENCH_MB8_SITE_NETWORK_H_

#include <cstddef>
#include <string>
#include <vector>

#include "qn/network.h"

namespace carat::bench {

inline qn::ClosedNetwork MakeMb8SiteNetwork() {
  using qn::CenterKind;
  // Per chain: CPU, DISK, LW, RW, CW, UT demands (ms).
  constexpr double kDemands[6][6] = {
      {859.2, 1369.0, 10740.0, 0.0, 0.0, 0.0},
      {1158.8, 4539.0, 15650.0, 0.0, 0.0, 0.0},
      {718.2, 696.8, 5368.0, 11560.0, 443.7, 0.0},
      {861.0, 2161.0, 7736.0, 21210.0, 1368.0, 0.0},
      {429.4, 729.0, 5398.0, 11840.0, 248.2, 0.0},
      {563.8, 2206.0, 7841.0, 21920.0, 253.2, 0.0},
  };
  qn::ClosedNetwork net;
  net.AddCenter("CPU", CenterKind::kQueueing);
  net.AddCenter("DISK", CenterKind::kQueueing);
  net.AddCenter("LW", CenterKind::kDelay);
  net.AddCenter("RW", CenterKind::kDelay);
  net.AddCenter("CW", CenterKind::kDelay);
  net.AddCenter("UT", CenterKind::kDelay);
  for (int k = 0; k < 6; ++k) {
    const std::size_t c = net.AddChain("chain" + std::to_string(k),
                                       /*population=*/2, /*think_time=*/0.0);
    for (int m = 0; m < 6; ++m) net.chains[c].demands[m] = kDemands[k][m];
  }
  return net;
}

// The mb8 site network cut to populations.size() (at most 6) chains, chain k
// with population populations[k].
inline qn::ClosedNetwork MakeSiteShapeNetwork(
    const std::vector<int>& populations) {
  qn::ClosedNetwork net = MakeMb8SiteNetwork();
  net.chains.resize(populations.size());
  for (std::size_t k = 0; k < populations.size(); ++k)
    net.chains[k].population = populations[k];
  return net;
}

// The lattice shapes of the paper workloads' site networks (2 nodes): the
// populations of the chains each site solves.
struct PaperSiteShape {
  const char* name;
  std::vector<int> populations;
  std::size_t states;  // prod_k (N_k + 1)
};

inline std::vector<PaperSiteShape> PaperSiteShapes() {
  return {{"lb8", {4, 4}, 25},
          {"mb4", {1, 1, 1, 1, 1, 1}, 64},
          {"mb8", {2, 2, 2, 2, 2, 2}, 729},
          {"ub6", {2, 2, 1, 1, 1, 1}, 144}};
}

}  // namespace carat::bench

#endif  // CARAT_BENCH_MB8_SITE_NETWORK_H_
