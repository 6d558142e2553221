// Lock-contention submodel (Section 5.4 of the paper): average locks held,
// blocking probabilities, deadlock-victim probability, and lock-wait delay.
//
// All functions are pure; the iterative solver (solver.h) feeds them the
// current estimates and damps the outputs.

#ifndef CARAT_MODEL_LOCK_MODEL_H_
#define CARAT_MODEL_LOCK_MODEL_H_

#include <array>

#include "model/types.h"

namespace carat::model {

/// Expected number of locks held at the end of an aborted execution, E[Y]
/// (Eq. 11), for a transaction requesting `nlk` locks where each request is
/// independently fatal with probability `pbpd` = Pb * Pd.
double ExpectedLocksAtAbort(double pbpd, double nlk);

/// sigma = E[Y] / N_lk, the mean fraction of lock requests issued before an
/// abort strikes. Defined as 1 when aborts are impossible.
double SigmaFraction(double pbpd, double nlk);

/// Time-average number of locks held by a transaction (Eq. 14).
/// `rs` is the mean duration of a successful execution, `rut` the mean think
/// time, `pa` the per-submission abort probability, `sigma` from above.
double AverageLocksHeld(double nlk, double sigma, double pa, double rs,
                        double rut);

/// Per-site per-type inputs for the blocking computations.
struct SiteLockInputs {
  /// Population N(t,i).
  std::array<double, kNumTxnTypes> population{};
  /// Time-average locks held per transaction, L_h(t,i).
  std::array<double, kNumTxnTypes> locks_held{};
  /// Total lock requests per execution, N_lk(t).
  std::array<double, kNumTxnTypes> lock_requests{};
  /// Probability a transaction blocks at least once per execution (Eq. 16);
  /// used by the two-cycle deadlock estimate.
  std::array<double, kNumTxnTypes> block_prob_per_execution{};
  /// Number of lockable granules at the site, N_g.
  double num_granules = 1.0;
  /// Lock-collision inflation from access skew (AccessSkew::ContentionFactor;
  /// 1 under the paper's uniform-access assumption).
  double contention_factor = 1.0;
};

/// One site's blocking shares, each type's blockable lock mass (the Eq. 15
/// denominator) computed once: pb[t][s] is BlockerTypeProbability(in, t, s)
/// and mass[t] the mass BlockingProbability(in, t) scales, bit for bit. The
/// overloads below that take it return what their plain forms return; the
/// CC submodels build it once per site and iteration.
struct BlockerShares {
  explicit BlockerShares(const SiteLockInputs& in);
  std::array<std::array<double, kNumTxnTypes>, kNumTxnTypes> pb{};
  std::array<double, kNumTxnTypes> mass{};
};

/// Pb(t,i) (Eq. 15, mode-consistent form): probability one lock request of a
/// type-t transaction is blocked. Shared requests conflict only with
/// exclusive holders (the update types); exclusive requests conflict with
/// every holder. A transaction never blocks on its own locks.
double BlockingProbability(const SiteLockInputs& in, TxnType t);
double BlockingProbability(const SiteLockInputs& in,
                           const BlockerShares& shares, TxnType t);

/// P_lw(t,i) (Eq. 16): probability a type-t execution blocks at least once.
double BlockAtLeastOnceProbability(double pb, double nlk);

/// PB(t,s,i) (Eq. 17, mode-aware): probability the blocker is of type s given
/// a type-t request blocked. Zero for (reader t, reader s) pairs; the type-t
/// row sums to 1 whenever some blocker is possible.
double BlockerTypeProbability(const SiteLockInputs& in, TxnType t, TxnType s);

/// Pd(t,i): probability a blocked type-t request is a two-cycle deadlock
/// victim. Reconstruction of the [JENQ86] derivation (see DESIGN.md §4):
///   Pd(t,i) = sum_s PB(t,s,i) * P_lw(s,i) * PB(s,t,i) / N(t,i),
/// i.e. the blocker s must itself be blocked, and its blocker must be this
/// very transaction. First-order in Pb, mode-aware through PB.
double DeadlockVictimProbability(const SiteLockInputs& in, TxnType t);
double DeadlockVictimProbability(const SiteLockInputs& in,
                                 const BlockerShares& shares, TxnType t);

/// Blocking ratio BR(t) (Eq. 19) = (2 N_lk + 1) / (6 N_lk), approximately
/// 1/3: the expected remaining lock-holding time of the blocker as a
/// fraction of its execution time.
double BlockingRatio(double nlk);

/// Mean remaining blocking time RLT(s,i) (Eq. 18) given the blocker's mean
/// execution duration.
double MeanBlockingTime(double nlk_blocker, double blocker_execution_ms);

/// R_LW(t,i) (Eq. 20): mean lock-wait delay per blocked request, combining
/// the blocker-type distribution with the per-type blocking times.
double LockWaitDelay(const SiteLockInputs& in, TxnType t,
                     const std::array<double, kNumTxnTypes>& rlt);
double LockWaitDelay(const BlockerShares& shares, TxnType t,
                     const std::array<double, kNumTxnTypes>& rlt);

}  // namespace carat::model

#endif  // CARAT_MODEL_LOCK_MODEL_H_
