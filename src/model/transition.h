// Phase-transition probabilities (Table 1 of the paper) and the visit-count
// solver (Eq. 1).

#ifndef CARAT_MODEL_TRANSITION_H_
#define CARAT_MODEL_TRANSITION_H_

#include <array>

#include "model/phases.h"
#include "model/types.h"

namespace carat::model {

/// Probabilistic quantities a transaction's transition matrix depends on.
struct TransitionInputs {
  int local_requests = 0;   ///< l(t)
  int remote_requests = 0;  ///< r(t); 0 for local and slave chains
  double io_per_request = 4.0;  ///< q(t), mean granule I/Os per request
  double pb = 0.0;          ///< Pb(t,i), lock request blocked
  double pd = 0.0;          ///< Pd(t,i), blocked request chosen deadlock victim
  double pra = 0.0;         ///< Pra(t,i), abort while in remote wait
};

/// Row-stochastic 16x16 phase-transition matrix; entry (from, to).
using TransitionMatrix = std::array<std::array<double, kNumPhases>, kNumPhases>;

namespace internal {

constexpr double& At(TransitionMatrix& m, Phase from, Phase to) {
  return m[Index(from)][Index(to)];
}

// Transitions shared by every chain variant: the DM/LR/DMIO loop, the abort
// and commit tails, and the return to user think.
constexpr void FillCommonTail(const TransitionInputs& in, TransitionMatrix* m) {
  const double q = in.io_per_request;
  At(*m, Phase::kDM, Phase::kTM) = 1.0 / (q + 1.0);
  At(*m, Phase::kDM, Phase::kLR) = q / (q + 1.0);
  At(*m, Phase::kLR, Phase::kDMIO) = 1.0 - in.pb;
  At(*m, Phase::kLR, Phase::kLW) = in.pb;
  At(*m, Phase::kDMIO, Phase::kDM) = 1.0;
  At(*m, Phase::kLW, Phase::kDMIO) = 1.0 - in.pd;
  At(*m, Phase::kLW, Phase::kTA) = in.pd;
  At(*m, Phase::kTC, Phase::kCWC) = 1.0;
  At(*m, Phase::kTA, Phase::kCWA) = 1.0;
  At(*m, Phase::kCWC, Phase::kTCIO) = 1.0;
  At(*m, Phase::kCWA, Phase::kTAIO) = 1.0;
  At(*m, Phase::kTCIO, Phase::kUL) = 1.0;
  At(*m, Phase::kTAIO, Phase::kUL) = 1.0;
  At(*m, Phase::kUL, Phase::kUT) = 1.0;
}

}  // namespace internal

/// Builds the transition matrix for a local or coordinator chain, exactly per
/// Table 1 of the paper. C(t) = 2 n(t) + 1 transitions leave the TM phase:
/// n back to the user process, l to a local DM server, r to a remote site,
/// and one into commit processing.
constexpr TransitionMatrix BuildLocalOrCoordinatorMatrix(
    const TransitionInputs& in) {
  using internal::At;
  TransitionMatrix m{};
  const double n = in.local_requests + in.remote_requests;
  const double c = 2.0 * n + 1.0;  // C(t) = 2 n(t) + 1

  At(m, Phase::kUT, Phase::kINIT) = 1.0;
  At(m, Phase::kINIT, Phase::kU) = 1.0;
  At(m, Phase::kU, Phase::kTM) = 1.0;
  At(m, Phase::kTM, Phase::kU) = n / c;
  At(m, Phase::kTM, Phase::kDM) = in.local_requests / c;
  At(m, Phase::kTM, Phase::kRW) = in.remote_requests / c;
  At(m, Phase::kTM, Phase::kTC) = 1.0 / c;
  At(m, Phase::kRW, Phase::kTM) = 1.0 - in.pra;
  At(m, Phase::kRW, Phase::kTA) = in.pra;
  internal::FillCommonTail(in, &m);
  return m;
}

/// Builds the matrix for a slave chain (the paper states the slave
/// expressions are "similar"; DESIGN.md section 4 gives our derivation).
/// A slave has no U phase: it wakes from UT into TM on the first REMDO,
/// returns to RW after each served request, and enters TC when the PREPARE
/// arrives, giving C = 2 l + 1 TM transitions split l:l:1 over DM, RW and TC.
constexpr TransitionMatrix BuildSlaveMatrix(const TransitionInputs& in) {
  using internal::At;
  TransitionMatrix m{};
  const double l = in.local_requests;
  const double c = 2.0 * l + 1.0;

  // A slave lies dormant in UT until the first REMDO of the next global
  // transaction arrives, which is TM work.
  At(m, Phase::kUT, Phase::kTM) = 1.0;
  At(m, Phase::kTM, Phase::kDM) = l / c;
  At(m, Phase::kTM, Phase::kRW) = l / c;
  At(m, Phase::kTM, Phase::kTC) = 1.0 / c;
  At(m, Phase::kRW, Phase::kTM) = 1.0 - in.pra;
  At(m, Phase::kRW, Phase::kTA) = in.pra;
  internal::FillCommonTail(in, &m);
  return m;
}

/// Dispatches on the chain type.
constexpr TransitionMatrix BuildTransitionMatrix(TxnType type,
                                                 const TransitionInputs& in) {
  return IsSlave(type) ? BuildSlaveMatrix(in)
                       : BuildLocalOrCoordinatorMatrix(in);
}

/// Mean visits to each phase per execution (committed or aborted), V_c,
/// obtained by solving V = V . P with V_UT = 1 (Eq. 1).
using VisitCounts = std::array<double, kNumPhases>;

/// Solves Eq. 1 for a chain of `type` with inputs `in`. Returns false if
/// the linear system is singular (a pivot below 1e-14).
///
/// The system is the 15x15 (I - P^T) V = P_UT over the phases other than
/// UT, and the result is defined as that of the dense loop of Gaussian
/// elimination with partial pivoting, pivot by pivot and update by update
/// (model_test keeps that loop as the reference). What runs is the dense
/// loop's elimination schedule, traced at compile time from the Table 1
/// structure of the chain kind (local or coordinator, and slave). The
/// structure is read off the builders above, so Table 1 is written once.
/// The schedule performs exactly the dense loop's operations on
/// structurally nonzero entries (fill-in included), in the dense loop's
/// order, as straight-line code. For finite inputs its results are the
/// dense loop's bit for bit:
///  - A skipped operation acts on exact zeros. A structurally zero entry
///    is +0.0 and stays +0.0 under the dense loop, and no entry is ever
///    -0.0 (off-diagonals are assembled as 0.0 - p, and x - x is +0.0), so
///    x - f * 0.0 == x for every entry the schedule leaves alone.
///  - A pivot that no earlier step updated is exactly 1.0 - 0.0 (Table 1
///    has no self-loops), so its divisions are dropped: x / 1.0 == x.
///  - The residue the dense loop leaves below the diagonal of an
///    eliminated column is never read again, so it is not computed.
///  - The pivot test stays at run time. If a column's diagonal falls
///    below 1e-14 or loses to a structurally nonzero lower row, the dense
///    loop resumes at that column. From there it touches only the trailing
///    block of rows and columns at or past that column, which holds the
///    same values it would hold in the dense loop, every entry that the
///    schedule never stores being the dense loop's exact zero. The rows
///    above the block are final and no swap reaches them, so the schedule
///    back-substitutes those.
/// Lost pivots are common: with pd = 0 and the abort path unreachable, the
/// dense loop swaps rows at columns LW or RW, TC and CWC whenever rounding
/// makes a lower entry larger than a mathematically equal diagonal, in
/// about a quarter of a cold solve's calls.
bool SolveVisitCounts(TxnType type, const TransitionInputs& in,
                      VisitCounts* v);

}  // namespace carat::model

#endif  // CARAT_MODEL_TRANSITION_H_
