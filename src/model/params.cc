#include "model/params.h"

#include <cmath>

namespace carat::model {

void ClassParams::DeriveDefaults(TxnType type) {
  init_cpu_ms = 2.0 * tm_cpu_ms + dm_cpu_ms;
  tc_cpu_ms = IsCoordinator(type) ? 2.0 * tm_cpu_ms : tm_cpu_ms;
  tcio_force_writes = IsSlave(type) ? 2.0 : 1.0;
  ta_fixed_cpu_ms = tm_cpu_ms;
  if (IsUpdate(type)) {
    ta_cpu_per_granule_ms = dmio_cpu_ms;
    taio_ios_per_granule = 2.0;
  } else {
    ta_cpu_per_granule_ms = 0.0;
    taio_ios_per_granule = 0.0;
  }
}

bool ModelInput::Validate(std::string* error) const {
  auto fail = [error](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  // NaN fails every comparison, so `< 0` alone would let it through.
  auto bad_time = [](double v) { return !std::isfinite(v) || v < 0; };
  if (sites.empty()) return fail("no sites");
  if (bad_time(comm_delay_ms))
    return fail("negative or non-finite communication delay");
  if (bad_time(restart_backoff_ms))
    return fail("negative or non-finite restart backoff");
  for (const SiteParams& site : sites) {
    if (site.num_granules <= 0) return fail("num_granules must be positive");
    if (site.records_per_granule <= 0)
      return fail("records_per_granule must be positive");
    if (bad_time(site.block_io_ms))
      return fail("negative or non-finite block I/O time");
    if (bad_time(site.think_time_ms))
      return fail("negative or non-finite think time");
    for (TxnType t : kAllTxnTypes) {
      const ClassParams& c = site.Class(t);
      if (c.population < 0) return fail("negative population");
      if (c.population == 0) continue;
      if (c.local_requests < 0 || c.remote_requests < 0)
        return fail("negative request count");
      if (IsLocal(t) && c.remote_requests != 0)
        return fail("local type with remote requests");
      if (IsSlave(t) && c.remote_requests != 0)
        return fail("slave chain with remote requests");
      if (IsCoordinator(t) && c.remote_requests == 0)
        return fail("coordinator with no remote requests");
      if (c.total_requests() <= 0) return fail("class with no requests");
      if (c.records_per_request <= 0)
        return fail("records_per_request must be positive");
    }
  }
  // Slave populations must have matching coordinators somewhere else.
  // Precomputing the per-type totals keeps this O(sites) — the naive
  // per-slave rescan was quadratic and its int accumulator could overflow
  // at thousands of sites. 64-bit totals are safe: populations are ints,
  // so the sum stays below sites * INT_MAX.
  for (TxnType s : {TxnType::kDROS, TxnType::kDUS}) {
    const TxnType t = CoordinatorOf(s);
    long long total_coordinators = 0;
    for (const SiteParams& site : sites) {
      total_coordinators += site.Class(t).population;
    }
    for (const SiteParams& site : sites) {
      if (site.Class(s).population == 0) continue;
      if (total_coordinators - site.Class(t).population == 0)
        return fail("slave chain without any coordinator");
    }
  }
  return true;
}

}  // namespace carat::model
