// Phase-transition probabilities (Table 1 of the paper) and the visit-count
// solver (Eq. 1).

#ifndef CARAT_MODEL_TRANSITION_H_
#define CARAT_MODEL_TRANSITION_H_

#include <array>
#include <initializer_list>

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

// Table 1 for a local or coordinator chain: writes every entry the chain
// kind may set and leaves the others as they are.
constexpr void FillLocalOrCoordinatorMatrix(const TransitionInputs& in,
                                            TransitionMatrix* m) {
  const double n = in.local_requests + in.remote_requests;
  const double c = 2.0 * n + 1.0;  // C(t) = 2 n(t) + 1

  At(*m, Phase::kUT, Phase::kINIT) = 1.0;
  At(*m, Phase::kINIT, Phase::kU) = 1.0;
  At(*m, Phase::kU, Phase::kTM) = 1.0;
  At(*m, Phase::kTM, Phase::kU) = n / c;
  At(*m, Phase::kTM, Phase::kDM) = in.local_requests / c;
  At(*m, Phase::kTM, Phase::kRW) = in.remote_requests / c;
  At(*m, Phase::kTM, Phase::kTC) = 1.0 / c;
  At(*m, Phase::kRW, Phase::kTM) = 1.0 - in.pra;
  At(*m, Phase::kRW, Phase::kTA) = in.pra;
  FillCommonTail(in, m);
}

// Table 1 for a slave chain, written the same way.
constexpr void FillSlaveMatrix(const TransitionInputs& in,
                               TransitionMatrix* m) {
  const double l = in.local_requests;
  const double c = 2.0 * l + 1.0;

  // A slave lies dormant in UT until the first REMDO of the next global
  // transaction arrives, which is TM work.
  At(*m, Phase::kUT, Phase::kTM) = 1.0;
  At(*m, Phase::kTM, Phase::kDM) = l / c;
  At(*m, Phase::kTM, Phase::kRW) = l / c;
  At(*m, Phase::kTM, Phase::kTC) = 1.0 / c;
  At(*m, Phase::kRW, Phase::kTM) = 1.0 - in.pra;
  At(*m, Phase::kRW, Phase::kTA) = in.pra;
  FillCommonTail(in, m);
}

}  // namespace internal

/// Builds the transition matrix for a local or coordinator chain, exactly per
/// Table 1 of the paper. C(t) = 2 n(t) + 1 transitions leave the TM phase:
/// n back to the user process, l to a local DM server, r to a remote site,
/// and one into commit processing.
constexpr TransitionMatrix BuildLocalOrCoordinatorMatrix(
    const TransitionInputs& in) {
  TransitionMatrix m{};
  internal::FillLocalOrCoordinatorMatrix(in, &m);
  return m;
}

/// Builds the matrix for a slave chain (the paper states the slave
/// expressions are "similar"; DESIGN.md section 4 gives our derivation).
/// A slave has no U phase: it wakes from UT into TM on the first REMDO,
/// returns to RW after each served request, and enters TC when the PREPARE
/// arrives, giving C = 2 l + 1 TM transitions split l:l:1 over DM, RW and TC.
constexpr TransitionMatrix BuildSlaveMatrix(const TransitionInputs& in) {
  TransitionMatrix m{};
  internal::FillSlaveMatrix(in, &m);
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

/// The index of V_phase among the 15 unknowns of Eq. 1 (every phase but
/// UT): row and column of the phase in (I - P^T) V = P_UT.
constexpr int VisitUnknown(Phase phase) {
  return Index(phase) < Index(Phase::kUT) ? Index(phase) : Index(phase) - 1;
}

/// A row swap of the dense loop's partial pivoting: at column `col` the row
/// at position `row` (> col) holds the largest magnitude. Both are unknown
/// indices; a position is named by the phase whose row starts there.
struct PivotSwap {
  int col = 0;
  int row = 0;
};

/// The row swaps of one run of the dense loop, in column order.
struct PivotSequence {
  int size = 0;
  std::array<PivotSwap, 4> swaps{};
};

namespace internal {

constexpr PivotSwap Swap(Phase col, Phase row) {
  return {VisitUnknown(col), VisitUnknown(row)};
}

// Once the abort path is unreachable, TC and CWC, then CWC and UL, reach
// equal magnitudes after a swap has brought row TC up (DESIGN.md section 11).
constexpr PivotSequence AfterTcSwap(std::initializer_list<PivotSwap> head) {
  PivotSequence seq;
  for (const PivotSwap& s : head) seq.swaps[seq.size++] = s;
  seq.swaps[seq.size++] = Swap(Phase::kTC, Phase::kCWC);
  seq.swaps[seq.size++] = Swap(Phase::kCWC, Phase::kUL);
  return seq;
}

}  // namespace internal

/// The swap sequences SolveVisitCounts runs as compiled code, per chain
/// kind; the first is the swap-free run. Any other sequence runs the dense
/// loop from the first column.
inline constexpr std::array<PivotSequence, 6> kLocalOrCoordinatorPivots = {
    PivotSequence{},
    internal::AfterTcSwap({internal::Swap(Phase::kLW, Phase::kTC)}),
    internal::AfterTcSwap({internal::Swap(Phase::kRW, Phase::kTC)}),
    internal::AfterTcSwap({internal::Swap(Phase::kLW, Phase::kTC),
                           internal::Swap(Phase::kRW, Phase::kTC)}),
    internal::AfterTcSwap({internal::Swap(Phase::kDMIO, Phase::kTC)}),
    internal::AfterTcSwap({internal::Swap(Phase::kDMIO, Phase::kTC),
                           internal::Swap(Phase::kRW, Phase::kTC)}),
};
inline constexpr std::array<PivotSequence, 4> kSlavePivots = {
    PivotSequence{},
    internal::AfterTcSwap({internal::Swap(Phase::kRW, Phase::kTC)}),
    internal::AfterTcSwap({internal::Swap(Phase::kLW, Phase::kTC)}),
    internal::AfterTcSwap({internal::Swap(Phase::kDMIO, Phase::kTC)}),
};

/// Solves Eq. 1 for a chain of `type` with inputs `in`. Returns false if
/// the linear system is singular (a pivot below 1e-14).
///
/// The system is the 15x15 (I - P^T) V = P_UT over the phases other than
/// UT, and the result is defined as that of the dense loop of Gaussian
/// elimination with partial pivoting, pivot by pivot and update by update
/// (model_test keeps that loop as the reference). What runs is the dense
/// loop's elimination, traced at compile time from the Table 1 structure of
/// the chain kind (local or coordinator, and slave) for each swap sequence
/// listed above. The structure is read off the builders above, so Table 1
/// is written once. A row swap costs nothing at run time: rows keep their
/// storage and the trace renames which row stands at each position. Each
/// traced sequence performs exactly the dense loop's operations on
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
///  - The pivot search stays at run time, over the structurally nonzero
///    rows of the column in position order. When its winner differs from
///    the running sequence's, the listed sequence with the same earlier
///    choices and this one takes over at that column, on the same store:
///    every entry lives in its original row under every sequence, and each
///    sequence's store holds the same values the dense loop holds, every
///    entry it never holds being the dense loop's exact zero. When no
///    listed sequence takes over, the dense loop solves the system from
///    the start.
/// Swaps are common: with pd = 0 and the abort path unreachable, the dense
/// loop swaps rows at columns LW, RW or DMIO, then TC and CWC, whenever
/// rounding makes a lower entry larger than a mathematically equal
/// diagonal, in about a quarter of a cold solve's calls.
bool SolveVisitCounts(TxnType type, const TransitionInputs& in,
                      VisitCounts* v);

}  // namespace carat::model

#endif  // CARAT_MODEL_TRANSITION_H_
