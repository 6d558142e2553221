#include "model/transition.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <utility>

namespace carat::model {

namespace {

// Unknowns: V_c for the 15 phases other than UT; V_UT is fixed at 1.
// Equations: V_c = sum_e V_e * p[e][c]  for c != UT, i.e. row Unknown(c) of
// (I - P^T) V = P_UT.
constexpr int kUt = Index(Phase::kUT);
constexpr int kN = kNumPhases - 1;

constexpr int Unknown(int phase) { return phase < kUt ? phase : phase - 1; }
constexpr int PhaseOf(int unknown) { return unknown < kUt ? unknown : unknown + 1; }

// The partial-pivot threshold below which the system counts as singular.
constexpr double kMinPivot = 1e-14;

// The dense loop's elimination, traced symbolically over one Table 1
// structure. An entry has a slot in the compact store when it may be
// nonzero at some point of the elimination; every other entry is an exact
// 0.0 throughout.
struct Schedule {
  std::array<std::array<int, kN>, kN> slot{};  // -1: always zero
  int slots = 0;
  std::array<int, kN * kN> slot_row{};
  std::array<int, kN * kN> slot_col{};
  // The slot starts as (diagonal ? 1.0 : 0.0) - p[e][c]; otherwise as
  // (diagonal ? 1.0 : 0.0), a diagonal without self-loop or a fill-in.
  std::array<bool, kN * kN> from_p{};
  std::array<bool, kN> rhs_from_p{};  // b[row] starts as p[UT][PhaseOf(row)]
  std::array<bool, kN> rhs{};         // b[row] may be nonzero
  // unit[k]: the diagonal is still exactly 1.0 when column k is reached.
  std::array<bool, kN> unit{};
  // Rows r > k with a slot in column k, ascending.
  std::array<int, kN> below_count{};
  std::array<std::array<int, kN>, kN> below{};
  // Columns c > k with a slot in row k, ascending.
  std::array<int, kN> right_count{};
  std::array<std::array<int, kN>, kN> right{};
};

constexpr Schedule Trace(const TransitionMatrix& p) {
  Schedule s;
  std::array<std::array<bool, kN>, kN> nz{};
  std::array<std::array<bool, kN>, kN> from_p{};
  for (int c = 0; c < kNumPhases; ++c) {
    if (c == kUt) continue;
    const int row = Unknown(c);
    nz[row][row] = true;
    s.unit[row] = p[c][c] == 0.0;
    for (int e = 0; e < kNumPhases; ++e) {
      if (e == kUt || p[e][c] == 0.0) continue;
      nz[row][Unknown(e)] = true;
      from_p[row][Unknown(e)] = true;
    }
    s.rhs_from_p[row] = p[kUt][c] != 0.0;
    s.rhs[row] = s.rhs_from_p[row];
  }
  for (int k = 0; k < kN; ++k) {
    for (int r = k + 1; r < kN; ++r) {
      if (!nz[r][k]) continue;
      for (int c = k + 1; c < kN; ++c) {
        if (!nz[k][c]) continue;
        nz[r][c] = true;
        if (c == r) s.unit[r] = false;
      }
      if (s.rhs[k]) s.rhs[r] = true;
    }
  }
  for (int r = 0; r < kN; ++r) {
    for (int c = 0; c < kN; ++c) {
      s.slot[r][c] = -1;
      if (!nz[r][c]) continue;
      s.slot[r][c] = s.slots;
      s.slot_row[s.slots] = r;
      s.slot_col[s.slots] = c;
      s.from_p[s.slots] = from_p[r][c];
      ++s.slots;
      if (r > c) s.below[c][s.below_count[c]++] = r;
      if (r < c) s.right[r][s.right_count[r]++] = c;
    }
  }
  return s;
}

// Inputs at which every Table 1 expression is nonzero, so the builders'
// output at these inputs is the structure.
constexpr TransitionInputs kProbe{1, 1, 1.0, 0.5, 0.5, 0.5};

constexpr Schedule kLocalOrCoordinator =
    Trace(BuildLocalOrCoordinatorMatrix(kProbe));
constexpr Schedule kSlave = Trace(BuildSlaveMatrix(kProbe));

// Calls f(std::integral_constant<int, I>{}) for I = 0 .. N-1 in order.
template <int N, class F>
[[gnu::always_inline]] inline void Unroll(F&& f) {
  [&]<int... I>(std::integer_sequence<int, I...>) [[gnu::always_inline]] {
    (f(std::integral_constant<int, I>{}), ...);
  }(std::make_integer_sequence<int, N>{});
}

// Writes every slot of `a` and each b[row] that P_UT feeds; the other
// entries of `b` stay at the caller's 0.0.
template <const Schedule& S>
[[gnu::always_inline]] inline void Assemble(const TransitionMatrix& p,
                                            double* a,
                                            std::array<double, kN>* b) {
  Unroll<S.slots>([&](auto i) [[gnu::always_inline]] {
    constexpr int r = S.slot_row[i];
    constexpr int c = S.slot_col[i];
    constexpr double one = r == c ? 1.0 : 0.0;
    if constexpr (S.from_p[i]) {
      a[i] = one - p[PhaseOf(c)][PhaseOf(r)];
    } else {
      a[i] = one;
    }
  });
  Unroll<kN>([&](auto r) [[gnu::always_inline]] {
    if constexpr (S.rhs_from_p[r]) (*b)[r] = 0.0 + p[kUt][PhaseOf(r)];
  });
}

// Column K of the dense loop without the swap: false when the pivot is lost
// (nothing of column K has been touched then).
template <const Schedule& S, int K>
[[gnu::always_inline]] inline bool EliminateColumn(double* a,
                                                   std::array<double, kN>* b) {
  constexpr int kRows = S.below_count[K];
  const double pivot = a[S.slot[K][K]];
  const double best = std::fabs(pivot);
  if (best < kMinPivot) return false;
  bool lost = false;
  Unroll<kRows>([&](auto i) [[gnu::always_inline]] {
    lost |= std::fabs(a[S.slot[S.below[K][i]][K]]) > best;
  });
  if (lost) return false;
  Unroll<kRows>([&](auto i) [[gnu::always_inline]] {
    constexpr int r = S.below[K][i];
    double factor = a[S.slot[r][K]];
    if constexpr (!S.unit[K]) factor /= pivot;
    Unroll<S.right_count[K]>([&](auto j) [[gnu::always_inline]] {
      constexpr int c = S.right[K][j];
      a[S.slot[r][c]] -= factor * a[S.slot[K][c]];
    });
    if constexpr (S.rhs[K]) (*b)[r] -= factor * (*b)[K];
  });
  return true;
}

// Back substitution over rows first-1 .. 0 (first = kN: every row).
template <const Schedule& S>
[[gnu::always_inline]] inline void BackSubstitute(
    const double* a, const std::array<double, kN>& b, int first,
    std::array<double, kN>* x) {
  Unroll<kN>([&](auto step) [[gnu::always_inline]] {
    constexpr int i = kN - 1 - step;
    if (i >= first) return;
    double acc = b[i];
    Unroll<S.right_count[i]>([&](auto j) [[gnu::always_inline]] {
      constexpr int c = S.right[i][j];
      acc -= a[S.slot[i][c]] * (*x)[c];
    });
    if constexpr (S.unit[i]) {
      (*x)[i] = acc;
    } else {
      (*x)[i] = acc / a[S.slot[i][i]];
    }
  });
}

// The dense loop, resumed at column `first` after the schedule lost that
// column's pivot. From there on the dense loop reads and writes only the
// trailing block of rows and columns >= first (the residues left below the
// diagonal of earlier columns are never read), so only that block leaves
// the compact store; its entries with no slot are the dense loop's exact
// zeros. Solves x[first ..]. The rows above the block are final, and no swap
// reaches them, so the schedule back-substitutes those.
bool ResumeDense(const Schedule& s, const double* slots,
                 const std::array<double, kN>& rhs, int first,
                 std::array<double, kN>* x) {
  const std::size_t n = kN - first;
  std::array<double, kN * kN> a{};
  for (int i = 0; i < s.slots; ++i) {
    if (s.slot_row[i] >= first && s.slot_col[i] >= first)
      a[(s.slot_row[i] - first) * n + (s.slot_col[i] - first)] = slots[i];
  }
  std::array<double, kN> b{};
  std::copy(rhs.begin() + first, rhs.end(), b.begin());

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    double best = std::fabs(a[col * n + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double value = std::fabs(a[r * n + col]);
      if (value > best) {
        best = value;
        pivot = r;
      }
    }
    if (best < kMinPivot) return false;
    if (pivot != col) {
      for (std::size_t c = col; c < n; ++c)
        std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a[r * n + col] / a[col * n + col];
      if (factor == 0.0) continue;
      // From col + 1: column col would only get its residue.
      for (std::size_t c = col + 1; c < n; ++c) a[r * n + c] -= factor * a[col * n + c];
      b[r] -= factor * b[col];
    }
  }

  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t c = i + 1; c < n; ++c) acc -= a[i * n + c] * (*x)[first + c];
    (*x)[first + i] = acc / a[i * n + i];
  }
  return true;
}

template <const Schedule& S>
bool RunSchedule(const TransitionMatrix& p, VisitCounts* v) {
  std::array<double, S.slots> a{};
  std::array<double, kN> b{};
  std::array<double, kN> x{};
  Assemble<S>(p, a.data(), &b);
  int lost = kN;
  [&]<int... K>(std::integer_sequence<int, K...>) [[gnu::always_inline]] {
    ((EliminateColumn<S, K>(a.data(), &b) || (lost = K, false)) && ...);
  }(std::make_integer_sequence<int, kN>{});
  if (lost < kN && !ResumeDense(S, a.data(), b, lost, &x)) return false;
  BackSubstitute<S>(a.data(), b, lost, &x);
  (*v)[kUt] = 1.0;
  for (int c = 0; c < kNumPhases; ++c) {
    if (c != kUt) (*v)[c] = x[Unknown(c)];
  }
  return true;
}

}  // namespace

bool SolveVisitCounts(TxnType type, const TransitionInputs& in,
                      VisitCounts* v) {
  const TransitionMatrix p = BuildTransitionMatrix(type, in);
  return IsSlave(type) ? RunSchedule<kSlave>(p, v)
                       : RunSchedule<kLocalOrCoordinator>(p, v);
}

}  // namespace carat::model
