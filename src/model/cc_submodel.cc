#include "model/cc_submodel.h"

#include <algorithm>

namespace carat::model {

namespace {

// The paper's 2PL machinery (Eqs. 15-20). This is the exact operation
// sequence StepLockModel ran before the backend split: pass 1 computes the
// undamped Pb / P_lw / RLT per type, pass 2 reads them back for Pd and R_LW.
// Nothing here may be reordered — the solver's 2PL fixed point is pinned
// bitwise by the pre-backend fingerprints. The blocker shares are the lock
// model's own expressions, evaluated once per site instead of once per use
// (every submodel below shares them the same way).
void Solve2PL(SiteLockInputs& li,
              const std::array<CcClassInputs, kNumTxnTypes>& cls,
              CcSiteOutputs* out) {
  const BlockerShares shares(li);
  std::array<double, kNumTxnTypes> rlt{};
  for (TxnType t : kAllTxnTypes) {
    const CcClassInputs& c = cls[Index(t)];
    if (!c.present) continue;
    out->pb[Index(t)] = BlockingProbability(li, shares, t);
    out->plw[Index(t)] =
        BlockAtLeastOnceProbability(out->pb[Index(t)], c.nlk);
    rlt[Index(t)] = MeanBlockingTime(c.nlk, c.rexec);
  }
  li.block_prob_per_execution = out->plw;
  for (TxnType t : kAllTxnTypes) {
    if (!cls[Index(t)].present) continue;
    out->pd[Index(t)] = DeadlockVictimProbability(li, shares, t);
    out->r_lw[Index(t)] = LockWaitDelay(shares, t, rlt);
  }
}

// Restart-oriented backends share the conflict probability with 2PL; they
// differ in what a conflict costs. `die_prob` is the share of conflicts
// that abort: 1 for no-waiting. For wait-die a uniformly random conflict
// pair would give 1/2, but every restart re-enters with a fresh — hence
// youngest — id, so restarted requesters die again on almost any conflict;
// 3/4 is the first-order blend of the two regimes.
void SolveRestart(SiteLockInputs& li,
                  const std::array<CcClassInputs, kNumTxnTypes>& cls,
                  double die_prob, double backoff_ms, CcSiteOutputs* out) {
  const BlockerShares shares(li);
  std::array<double, kNumTxnTypes> rlt{};
  for (TxnType t : kAllTxnTypes) {
    const CcClassInputs& c = cls[Index(t)];
    if (!c.present) continue;
    out->pb[Index(t)] = BlockingProbability(li, shares, t);
    out->plw[Index(t)] =
        BlockAtLeastOnceProbability(out->pb[Index(t)], c.nlk);
    rlt[Index(t)] = MeanBlockingTime(c.nlk, c.rexec);
  }
  li.block_prob_per_execution = out->plw;
  for (TxnType t : kAllTxnTypes) {
    if (!cls[Index(t)].present) continue;
    out->pd[Index(t)] = die_prob;
    // A dying conflict costs one restart backoff; a surviving one (wait-die
    // only) queues like 2PL.
    out->r_lw[Index(t)] = die_prob * backoff_ms +
                          (1.0 - die_prob) * LockWaitDelay(shares, t, rlt);
  }
}

// Queue-oriented backend: ordered upfront acquisition. No conflict is ever
// fatal (Pd = 0), but a lock is held from upfront acquisition to commit —
// the blocker's whole residency, not just its execution. A blocked
// acquisition therefore waits half the blocker's residency on average,
// mixed over blocker classes by their locks-held share (same PB mixing as
// the 2PL R_LW, Eq. 20, with the blocker's remaining time 0.5 * rs(s)
// instead of the 2PL remaining-execution term). Two guards keep the fixed
// point contractive where the testbed's pipelined execution stays live:
// the blocker's own acquisition wait is subtracted from its holding time
// (a transaction does not hold a node's locks while still waiting for
// them), and — because acquisition is a single upfront pass whose waits on
// distinct holders overlap — the whole execution pays the wait at most
// once: the solver charges LW per conflict (N_lk * Pb of them per
// execution), so R_LW is normalized to make the total LW demand
// P_lw * LockWaitDelay. Without either guard the residency-wait feedback
// compounds and throughput collapses to near zero under high contention,
// the opposite of the testbed's behaviour.
void SolveQueue(SiteLockInputs& li,
                const std::array<CcClassInputs, kNumTxnTypes>& cls,
                CcSiteOutputs* out) {
  const BlockerShares shares(li);
  std::array<double, kNumTxnTypes> rlt{};
  for (TxnType t : kAllTxnTypes) {
    const CcClassInputs& c = cls[Index(t)];
    if (!c.present) continue;
    out->pb[Index(t)] = BlockingProbability(li, shares, t);
    out->plw[Index(t)] =
        BlockAtLeastOnceProbability(out->pb[Index(t)], c.nlk);
    rlt[Index(t)] = 0.5 * std::max(c.rs - c.lw, 0.0);
  }
  li.block_prob_per_execution = out->plw;
  for (TxnType t : kAllTxnTypes) {
    const CcClassInputs& c = cls[Index(t)];
    if (!c.present) continue;
    out->pd[Index(t)] = 0.0;
    const double expected_conflicts = c.nlk * out->pb[Index(t)];
    out->r_lw[Index(t)] =
        expected_conflicts > 0.0
            ? out->plw[Index(t)] * LockWaitDelay(shares, t, rlt) /
                  expected_conflicts
            : 0.0;
  }
}

}  // namespace

void SolveCcSite(cc::BackendKind kind, double restart_backoff_ms,
                 SiteLockInputs li,
                 const std::array<CcClassInputs, kNumTxnTypes>& cls,
                 CcSiteOutputs* out) {
  *out = CcSiteOutputs{};
  switch (kind) {
    case cc::BackendKind::k2PL:
      Solve2PL(li, cls, out);
      return;
    case cc::BackendKind::kNoWait:
      SolveRestart(li, cls, 1.0, restart_backoff_ms, out);
      return;
    case cc::BackendKind::kWaitDie:
      SolveRestart(li, cls, 0.75, restart_backoff_ms, out);
      return;
    case cc::BackendKind::kQueue:
      SolveQueue(li, cls, out);
      return;
  }
}

}  // namespace carat::model
