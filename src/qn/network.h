// Closed multi-chain queueing-network specification.
//
// The paper's Site Processing Model (Fig. 2) is a closed product-form (BCMP)
// network: two load-independent queueing centers (CPU, DISK) plus several
// infinite-server delay centers (LW, RW, CW, UT). Each transaction type at a
// site is a closed routing chain with a finite population. MVA needs only the
// per-chain total service demand at each center, so the spec below carries
// demands rather than visit counts and per-visit service times.

#ifndef CARAT_QN_NETWORK_H_
#define CARAT_QN_NETWORK_H_

#include <cstddef>
#include <string>
#include <vector>

namespace carat::qn {

/// Service discipline of a center, as far as MVA is concerned.
enum class CenterKind {
  kQueueing,  ///< load-independent queueing center (PS / FCFS-exponential)
  kDelay,     ///< infinite-server (pure delay) center
};

/// One service center in the network.
struct Center {
  std::string name;
  CenterKind kind = CenterKind::kQueueing;
};

/// One closed routing chain (customer class with fixed population).
struct Chain {
  std::string name;
  int population = 0;
  /// Think time spent outside the network between passes (the MVA "Z" term).
  double think_time = 0.0;
  /// Total service demand (visit count x per-visit service time) at each
  /// center, indexed like ClosedNetwork::centers.
  std::vector<double> demands;
};

/// A closed multi-chain queueing network.
struct ClosedNetwork {
  std::vector<Center> centers;
  std::vector<Chain> chains;

  /// Adds a center, returning its index.
  std::size_t AddCenter(std::string name, CenterKind kind);

  /// Adds a chain with all-zero demands, returning its index.
  std::size_t AddChain(std::string name, int population, double think_time = 0.0);

  /// Validates shape: every chain has one demand per center, demands and
  /// think times are finite and non-negative, populations are non-negative.
  /// The exact kernels rely on finite demands (a delay center's residence
  /// is its demand; see mva.h).
  bool Validate(std::string* error = nullptr) const;
};

/// Per-chain and per-center solution of a closed network.
struct Solution {
  /// Chain throughput (customers per unit time), indexed by chain.
  std::vector<double> throughput;
  /// Mean residence time per pass through the network (excludes think time),
  /// indexed by chain.
  std::vector<double> response_time;
  /// Mean total queue length (including in service) per center.
  std::vector<double> queue_length;
  /// Utilization per center: for queueing centers, fraction busy; for delay
  /// centers, mean number of customers present.
  std::vector<double> utilization;
  /// Per-chain, per-center residence time: residence[k][m].
  std::vector<std::vector<double>> residence;
};

}  // namespace carat::qn

#endif  // CARAT_QN_NETWORK_H_
