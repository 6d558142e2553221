#include "model/lock_model.h"

#include <algorithm>
#include <cmath>

namespace carat::model {

namespace {

// Can a request issued by type `t` conflict with locks held by type `s`?
// Shared requests (read-only types) conflict only with exclusive holders.
bool CanBeBlockedBy(TxnType t, TxnType s) {
  if (IsReadOnly(t)) return IsUpdate(s);
  return true;  // exclusive requests conflict with every holder
}

// Total lock mass that can block a type-t request (the Eq. 15 denominator
// contribution), excluding the requester's own locks.
double BlockableLockMass(const SiteLockInputs& in, TxnType t) {
  double sum = 0.0;
  for (TxnType s : kAllTxnTypes) {
    if (!CanBeBlockedBy(t, s)) continue;
    sum += in.population[Index(s)] * in.locks_held[Index(s)];
    if (s == t) sum -= in.locks_held[Index(t)];  // never self-blocked
  }
  return std::max(sum, 0.0);
}

}  // namespace

double ExpectedLocksAtAbort(double pbpd, double nlk) {
  if (nlk <= 0.0) return 0.0;
  // The closed form below subtracts two O(1/p) terms; for tiny hazards it
  // cancels catastrophically, so use the uniform limit (truncated geometric
  // -> uniform on {0..N_lk-1}) when the total hazard is negligible.
  if (pbpd * nlk < 1e-6) return (nlk - 1.0) / 2.0;
  if (pbpd >= 1.0) return 0.0;  // always dies on the first request
  // E[Y] = (1-p)/p - N_lk * s^N_lk / (1 - s^N_lk), the mean of a truncated
  // geometric distribution on {0, ..., N_lk - 1} (Eq. 11). s^N_lk and
  // 1 - s^N_lk are computed via log1p/expm1 for stability.
  const double log_s = std::log1p(-pbpd);
  const double sn = std::exp(nlk * log_s);
  const double one_minus_sn = -std::expm1(nlk * log_s);
  if (one_minus_sn <= 0.0) return 0.0;
  return (1.0 - pbpd) / pbpd - nlk * sn / one_minus_sn;
}

double SigmaFraction(double pbpd, double nlk) {
  if (nlk <= 0.0) return 1.0;
  if (pbpd <= 0.0) return 1.0;
  return std::clamp(ExpectedLocksAtAbort(pbpd, nlk) / nlk, 0.0, 1.0);
}

double AverageLocksHeld(double nlk, double sigma, double pa, double rs,
                        double rut) {
  if (nlk <= 0.0 || rs <= 0.0) return 0.0;
  const double rf = sigma * rs;
  const double numer = (1.0 - (1.0 - sigma * sigma) * pa) * rs;
  const double denom = pa * rf + (1.0 - pa) * rs + rut;
  if (denom <= 0.0) return 0.0;
  return 0.5 * nlk * numer / denom;  // Eq. 14
}

BlockerShares::BlockerShares(const SiteLockInputs& in) {
  for (TxnType t : kAllTxnTypes) {
    const double denom = BlockableLockMass(in, t);
    mass[Index(t)] = denom;
    for (TxnType s : kAllTxnTypes) {
      double& share = pb[Index(t)][Index(s)];
      share = 0.0;
      if (!CanBeBlockedBy(t, s) || denom <= 0.0) continue;
      double held = in.population[Index(s)] * in.locks_held[Index(s)];
      if (s == t) held -= in.locks_held[Index(t)];
      share = std::max(held, 0.0) / denom;
    }
  }
}

double BlockingProbability(const SiteLockInputs& in, TxnType t) {
  return BlockingProbability(in, BlockerShares(in), t);
}

double BlockingProbability(const SiteLockInputs& in,
                           const BlockerShares& shares, TxnType t) {
  if (in.num_granules <= 0.0) return 0.0;
  const double pb =
      in.contention_factor * shares.mass[Index(t)] / in.num_granules;
  return std::clamp(pb, 0.0, 1.0);
}

double BlockAtLeastOnceProbability(double pb, double nlk) {
  if (nlk <= 0.0) return 0.0;
  const double p = std::clamp(pb, 0.0, 1.0);
  return 1.0 - std::pow(1.0 - p, nlk);
}

double BlockerTypeProbability(const SiteLockInputs& in, TxnType t, TxnType s) {
  return BlockerShares(in).pb[Index(t)][Index(s)];
}

double DeadlockVictimProbability(const SiteLockInputs& in, TxnType t) {
  return DeadlockVictimProbability(in, BlockerShares(in), t);
}

double DeadlockVictimProbability(const SiteLockInputs& in,
                                 const BlockerShares& shares, TxnType t) {
  const double nt = in.population[Index(t)];
  if (nt <= 0.0) return 0.0;
  double pd = 0.0;
  for (TxnType s : kAllTxnTypes) {
    const double pb_ts = shares.pb[Index(t)][Index(s)];
    if (pb_ts <= 0.0) continue;
    const double s_blocked = in.block_prob_per_execution[Index(s)];
    if (s_blocked <= 0.0) continue;
    const double pb_st = shares.pb[Index(s)][Index(t)];
    if (pb_st <= 0.0) continue;
    pd += pb_ts * s_blocked * pb_st / nt;
  }
  return std::clamp(pd, 0.0, 1.0);
}

double BlockingRatio(double nlk) {
  if (nlk <= 0.0) return 1.0 / 3.0;
  return (2.0 * nlk + 1.0) / (6.0 * nlk);  // Eq. 19
}

double MeanBlockingTime(double nlk_blocker, double blocker_execution_ms) {
  return BlockingRatio(nlk_blocker) * blocker_execution_ms;  // Eq. 18
}

double LockWaitDelay(const SiteLockInputs& in, TxnType t,
                     const std::array<double, kNumTxnTypes>& rlt) {
  return LockWaitDelay(BlockerShares(in), t, rlt);
}

double LockWaitDelay(const BlockerShares& shares, TxnType t,
                     const std::array<double, kNumTxnTypes>& rlt) {
  double delay = 0.0;
  for (TxnType s : kAllTxnTypes) {
    delay += shares.pb[Index(t)][Index(s)] * rlt[Index(s)];  // Eq. 20
  }
  return delay;
}

}  // namespace carat::model
