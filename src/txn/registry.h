// Distributed-transaction registry, one instance per site.
//
// In CARAT each coordinator TM knows where its transaction is currently
// operating (there is at most one active request per transaction), and the
// probe algorithm routes messages through the TMs using that knowledge. The
// registry keeps that bookkeeping *per home site*: a transaction's entry
// lives only at its home, ids encode the home (gid % num_sites), and anyone
// else must route a message to the home TM to learn the current node --
// which is exactly what the probe protocol does (see probes.h). This keeps
// every registry access on its own site's timeline.

#ifndef CARAT_TXN_REGISTRY_H_
#define CARAT_TXN_REGISTRY_H_

#include <unordered_map>

#include "txn/ids.h"

namespace carat::txn {

/// Home-site slice of the transaction registry. Only events executing on
/// this site may touch it.
class SiteRegistry {
 public:
  SiteRegistry(int site, int num_sites) : site_(site), num_sites_(num_sites) {}
  SiteRegistry(const SiteRegistry&) = delete;
  SiteRegistry& operator=(const SiteRegistry&) = delete;

  /// Allocates a fresh global transaction id homed at this site, operating
  /// here: gid = seq * num_sites + site, so its home is gid % num_sites.
  GlobalTxnId NewTxn() {
    const GlobalTxnId gid =
        next_seq_++ * static_cast<GlobalTxnId>(num_sites_) +
        static_cast<GlobalTxnId>(site_);
    current_node_.emplace(gid, site_);
    return gid;
  }

  void EndTxn(GlobalTxnId gid) { current_node_.erase(gid); }

  /// Coordinator bookkeeping: `gid` now operates at `node` (set before the
  /// REMDO hop, reset when the reply returns home).
  void SetCurrentNode(GlobalTxnId gid, int node) {
    const auto it = current_node_.find(gid);
    if (it != current_node_.end()) it->second = node;
  }

  /// Node where `gid` currently operates, or -1 if it finished.
  int CurrentNode(GlobalTxnId gid) const {
    const auto it = current_node_.find(gid);
    return it == current_node_.end() ? -1 : it->second;
  }

  /// The transactions homed here that have not ended, with their current
  /// nodes (diagnostics).
  const std::unordered_map<GlobalTxnId, int>& current_nodes() const {
    return current_node_;
  }

 private:
  int site_;
  int num_sites_;
  GlobalTxnId next_seq_ = 1;
  std::unordered_map<GlobalTxnId, int> current_node_;
};

}  // namespace carat::txn

#endif  // CARAT_TXN_REGISTRY_H_
