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

using Grid = std::array<std::array<bool, kN>, kN>;

// The Table 1 structure of a chain kind, in (row, column) = (Unknown(c),
// Unknown(e)) coordinates.
struct Structure {
  Grid nz{};      // may be nonzero on assembly (diagonals included)
  Grid from_p{};  // assembled as (diagonal ? 1.0 : 0.0) - p[e][c]
  std::array<bool, kN> rhs_from_p{};  // b[row] starts as p[UT][PhaseOf(row)]
};

constexpr Structure StructureOf(const TransitionMatrix& p) {
  Structure s;
  for (int c = 0; c < kNumPhases; ++c) {
    if (c == kUt) continue;
    const int row = Unknown(c);
    s.nz[row][row] = true;
    for (int e = 0; e < kNumPhases; ++e) {
      if (e == kUt || p[e][c] == 0.0) continue;
      s.nz[row][Unknown(e)] = true;
      s.from_p[row][Unknown(e)] = true;
    }
    s.rhs_from_p[row] = p[kUt][c] != 0.0;
  }
  return s;
}

// The dense loop's elimination, traced symbolically over one Table 1
// structure and one pivot plan: the position that wins each column's
// partial pivot. A row swap is a renaming: rows keep their storage (their
// original index) and the trace records which row stands at each position.
// An entry may be nonzero at some point of the elimination exactly when the
// trace marks it; every other entry is an exact 0.0 throughout.
struct PlanTrace {
  std::array<int, kN> pivot{};  // pivot[k] == k: no swap at column k
  // Entering column k, before its swap: the row at each position.
  std::array<std::array<int, kN>, kN> row_at{};
  // Column k's candidates: the positions past k whose row may be nonzero in
  // column k, ascending, and whether the row at position k may be.
  std::array<int, kN> cand_count{};
  std::array<std::array<int, kN>, kN> cand{};
  std::array<bool, kN> diag{};
  // After column k's swap: the pivot row, whether its pivot entry is still
  // exactly 1.0 and whether its b may be nonzero; the rows below it with an
  // entry in column k (in position order) and the pivot row's columns past k.
  std::array<int, kN> pivot_row{};
  std::array<bool, kN> unit{};
  std::array<bool, kN> rhs{};
  std::array<int, kN> below_count{};
  std::array<std::array<int, kN>, kN> below{};
  std::array<int, kN> right_count{};
  std::array<std::array<int, kN>, kN> right{};
  Grid nz{};  // every entry the plan may make nonzero
};

constexpr PlanTrace TracePlan(const Structure& s,
                              const std::array<int, kN>& pivot) {
  PlanTrace t;
  t.pivot = pivot;
  t.nz = s.nz;
  std::array<bool, kN> rhs = s.rhs_from_p;
  // one[r][c]: the entry is still the exact 1.0 - 0.0 of a diagonal without
  // self-loop (Table 1 has none).
  Grid one{};
  std::array<int, kN> row_at{};
  for (int r = 0; r < kN; ++r) {
    one[r][r] = !s.from_p[r][r];
    row_at[r] = r;
  }
  for (int k = 0; k < kN; ++k) {
    t.row_at[k] = row_at;
    t.diag[k] = t.nz[row_at[k]][k];
    for (int r = k + 1; r < kN; ++r) {
      if (t.nz[row_at[r]][k]) t.cand[k][t.cand_count[k]++] = r;
    }
    const int piv = pivot[k];
    if (piv < k || piv >= kN || !t.nz[row_at[piv]][k]) {
      throw "a pivot plan pivots on an exact zero";
    }
    std::swap(row_at[k], row_at[piv]);
    const int pr = row_at[k];
    t.pivot_row[k] = pr;
    t.unit[k] = one[pr][k];
    t.rhs[k] = rhs[pr];
    for (int c = k + 1; c < kN; ++c) {
      if (t.nz[pr][c]) t.right[k][t.right_count[k]++] = c;
    }
    for (int r = k + 1; r < kN; ++r) {
      const int row = row_at[r];
      if (!t.nz[row][k]) continue;
      t.below[k][t.below_count[k]++] = row;
      for (int j = 0; j < t.right_count[k]; ++j) {
        t.nz[row][t.right[k][j]] = true;
        one[row][t.right[k][j]] = false;
      }
      if (rhs[pr]) rhs[row] = true;
    }
  }
  return t;
}

constexpr int kMaxPlans = 6;

// A chain kind compiled: its pivot plans (plan 0 swaps nothing) over one
// compact store that holds every entry some plan may make nonzero. Entries
// live in their original row under every plan, so a run that leaves one
// plan for another at a column carries its store over unchanged.
struct Kind {
  bool slave = false;  // the chain kind: which Table 1 builder
  std::array<std::array<int, kN>, kN> slot{};  // -1: always zero
  int slots = 0;
  std::array<int, kN * kN> slot_row{};
  std::array<int, kN * kN> slot_col{};
  std::array<bool, kN * kN> from_p{};
  std::array<bool, kN> rhs_from_p{};
  int plans = 0;
  std::array<PlanTrace, kMaxPlans> plan{};
  // next[p][k][pos]: the plan a run of plan p continues in when column k
  // pivots at position pos instead (the first plan with p's choices before
  // column k and pos at k), or -1 when no plan covers it.
  std::array<std::array<std::array<int, kN>, kN>, kMaxPlans> next{};
};

template <std::size_t N>
constexpr Kind Compile(bool slave,
                       const std::array<PivotSequence, N>& sequences) {
  static_assert(N <= kMaxPlans);
  // Inputs at which every Table 1 expression is nonzero, so the builders'
  // output at these inputs is the structure.
  constexpr TransitionInputs kProbe{1, 1, 1.0, 0.5, 0.5, 0.5};
  const Structure s = StructureOf(slave ? BuildSlaveMatrix(kProbe)
                                        : BuildLocalOrCoordinatorMatrix(kProbe));
  Kind kind;
  kind.slave = slave;
  kind.plans = static_cast<int>(N);
  Grid nz{};
  for (std::size_t p = 0; p < N; ++p) {
    std::array<int, kN> pivot{};
    for (int k = 0; k < kN; ++k) pivot[k] = k;
    for (int i = 0; i < sequences[p].size; ++i) {
      pivot[sequences[p].swaps[i].col] = sequences[p].swaps[i].row;
    }
    kind.plan[p] = TracePlan(s, pivot);
    for (int r = 0; r < kN; ++r) {
      for (int c = 0; c < kN; ++c) nz[r][c] = nz[r][c] || kind.plan[p].nz[r][c];
    }
  }
  for (int r = 0; r < kN; ++r) {
    kind.rhs_from_p[r] = s.rhs_from_p[r];
    for (int c = 0; c < kN; ++c) {
      kind.slot[r][c] = -1;
      if (!nz[r][c]) continue;
      kind.slot[r][c] = kind.slots;
      kind.slot_row[kind.slots] = r;
      kind.slot_col[kind.slots] = c;
      kind.from_p[kind.slots] = s.from_p[r][c];
      ++kind.slots;
    }
  }
  for (int p = 0; p < kind.plans; ++p) {
    for (int k = 0; k < kN; ++k) {
      for (int pos = 0; pos < kN; ++pos) {
        int& next = kind.next[p][k][pos];
        next = -1;
        if (pos == kind.plan[p].pivot[k]) continue;
        for (int q = 0; q < kind.plans && next < 0; ++q) {
          bool same_prefix = kind.plan[q].pivot[k] == pos;
          for (int j = 0; j < k; ++j) {
            same_prefix = same_prefix &&
                          kind.plan[q].pivot[j] == kind.plan[p].pivot[j];
          }
          if (same_prefix) next = q;
        }
      }
    }
  }
  return kind;
}

constexpr Kind kLocalOrCoordinator = Compile(false, kLocalOrCoordinatorPivots);
constexpr Kind kSlave = Compile(true, kSlavePivots);

template <const Kind& S>
[[gnu::always_inline]] inline void FillMatrix(const TransitionInputs& in,
                                              TransitionMatrix* p) {
  if constexpr (S.slave) {
    internal::FillSlaveMatrix(in, p);
  } else {
    internal::FillLocalOrCoordinatorMatrix(in, p);
  }
}

// GCC applies [[gnu::always_inline]] written after a lambda's parameters to
// the lambda's type, where its inliner may ignore it; the GNU spelling there
// marks the call operator, so no part of a schedule is left out of line.
#define CARAT_INLINE_LAMBDA __attribute__((always_inline))

// Calls f(std::integral_constant<int, I>{}) for I = 0 .. N-1 in order.
template <int N, class F>
[[gnu::always_inline]] inline void Unroll(F&& f) {
  [&]<int... I>(std::integer_sequence<int, I...>) CARAT_INLINE_LAMBDA {
    (f(std::integral_constant<int, I>{}), ...);
  }(std::make_integer_sequence<int, N>{});
}

// Writes every slot of `a` and b[row] for every row.
template <const Kind& S>
[[gnu::always_inline]] inline void Assemble(const TransitionInputs& in,
                                            double* a, double* b) {
  // Only the Table 1 entries are read, so the rest need no zeros.
  TransitionMatrix p;
  FillMatrix<S>(in, &p);
  Unroll<S.slots>([&](auto i) CARAT_INLINE_LAMBDA {
    constexpr int r = S.slot_row[i];
    constexpr int c = S.slot_col[i];
    constexpr double one = r == c ? 1.0 : 0.0;
    if constexpr (S.from_p[i]) {
      a[i] = one - p[PhaseOf(c)][PhaseOf(r)];
    } else {
      a[i] = one;
    }
  });
  Unroll<kN>([&](auto r) CARAT_INLINE_LAMBDA {
    if constexpr (S.rhs_from_p[r]) {
      b[r] = 0.0 + p[kUt][PhaseOf(r)];
    } else {
      b[r] = 0.0;
    }
  });
}

// The position that wins column K's partial pivot under plan P's earlier
// choices, as the dense loop picks it (the first largest magnitude,
// scanning down), or -1 when the system is singular.
template <const Kind& S, int P, int K>
[[gnu::always_inline]] inline int PivotPosition(const double* a) {
  constexpr const PlanTrace& T = S.plan[P];
  double best = 0.0;
  if constexpr (T.diag[K]) best = std::fabs(a[S.slot[T.row_at[K][K]][K]]);
  int pos = K;
  Unroll<T.cand_count[K]>([&](auto i) CARAT_INLINE_LAMBDA {
    constexpr int r = T.cand[K][i];
    const double value = std::fabs(a[S.slot[T.row_at[K][r]][K]]);
    if (value > best) {
      best = value;
      pos = r;
    }
  });
  return best < kMinPivot ? -1 : pos;
}

// Does plan P's pivot at column K win the dense loop's search? It does when
// it clears the singular threshold, beats every earlier position and is not
// beaten by a later one: one comparison per row and one branch. When it
// fails, PivotPosition decides (a NaN fails it).
template <const Kind& S, int P, int K>
[[gnu::always_inline]] inline bool PlanKeepsPivot(const double* a) {
  constexpr const PlanTrace& T = S.plan[P];
  constexpr int want = T.pivot[K];
  const double best = std::fabs(a[S.slot[T.row_at[K][want]][K]]);
  bool lost = !(best >= kMinPivot);
  if constexpr (want != K && T.diag[K]) {
    lost |= !(std::fabs(a[S.slot[T.row_at[K][K]][K]]) < best);
  }
  Unroll<T.cand_count[K]>([&](auto i) CARAT_INLINE_LAMBDA {
    constexpr int r = T.cand[K][i];
    if constexpr (r < want) {
      lost |= !(std::fabs(a[S.slot[T.row_at[K][r]][K]]) < best);
    } else if constexpr (r > want) {
      lost |= !(std::fabs(a[S.slot[T.row_at[K][r]][K]]) <= best);
    }
  });
  return !lost;
}

// Column K of the dense loop with plan P's pivot, past the swap.
template <const Kind& S, int P, int K>
[[gnu::always_inline]] inline void Eliminate(double* a, double* b) {
  constexpr const PlanTrace& T = S.plan[P];
  constexpr int pr = T.pivot_row[K];
  const double pivot = a[S.slot[pr][K]];
  Unroll<T.below_count[K]>([&](auto i) CARAT_INLINE_LAMBDA {
    constexpr int r = T.below[K][i];
    double factor = a[S.slot[r][K]];
    if constexpr (!T.unit[K]) factor /= pivot;
    Unroll<T.right_count[K]>([&](auto j) CARAT_INLINE_LAMBDA {
      constexpr int c = T.right[K][j];
      a[S.slot[r][c]] -= factor * a[S.slot[pr][c]];
    });
    if constexpr (T.rhs[K]) b[r] -= factor * b[pr];
  });
}

// Back substitution under plan P.
template <const Kind& S, int P>
[[gnu::always_inline]] inline void BackSubstitute(const double* a,
                                                  const double* b, double* x) {
  constexpr const PlanTrace& T = S.plan[P];
  Unroll<kN>([&](auto step) CARAT_INLINE_LAMBDA {
    constexpr int i = kN - 1 - step;
    constexpr int row = T.pivot_row[i];
    double acc = b[row];
    Unroll<T.right_count[i]>([&](auto j) CARAT_INLINE_LAMBDA {
      constexpr int c = T.right[i][j];
      acc -= a[S.slot[row][c]] * x[c];
    });
    if constexpr (T.unit[i]) {
      x[i] = acc;
    } else {
      x[i] = acc / a[S.slot[row][i]];
    }
  });
}

// The dense loop itself, from the first column, for the runs no listed
// sequence covers.
[[gnu::cold, gnu::noinline]] bool SolveDense(bool slave,
                                             const TransitionInputs& in,
                                             double* x) {
  const TransitionMatrix p =
      slave ? BuildSlaveMatrix(in) : BuildLocalOrCoordinatorMatrix(in);
  constexpr std::size_t n = kN;
  std::array<double, n * n> a{};
  std::array<double, n> b{};
  for (int c = 0; c < kNumPhases; ++c) {
    if (c == kUt) continue;
    const std::size_t row = Unknown(c);
    a[row * n + row] += 1.0;
    for (int e = 0; e < kNumPhases; ++e) {
      if (e == kUt) {
        b[row] += p[e][c];
      } else {
        a[row * n + Unknown(e)] -= p[e][c];
      }
    }
  }
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
    for (std::size_t c = i + 1; c < n; ++c) acc -= a[i * n + c] * x[c];
    x[i] = acc / a[i * n + i];
  }
  return true;
}

template <const Kind& S, int P, int K>
[[gnu::always_inline]] inline bool Run(double* a, double* b,
                                       const TransitionInputs& in, double* x);

// Goes on in the listed sequence that covers pivot position `pos` at column
// K of a run of plan P, scanning positions from I on. Returns false when
// none does.
template <const Kind& S, int P, int K, int I>
[[gnu::always_inline]] inline bool Switch(int pos, double* a, double* b,
                                          const TransitionInputs& in,
                                          double* x, bool* ok) {
  if constexpr (I == kN) {
    return false;
  } else {
    constexpr int q = S.next[P][K][I];
    if constexpr (q >= 0) {
      if (pos == I) {
        Eliminate<S, q, K>(a, b);
        *ok = Run<S, q, K + 1>(a, b, in, x);
        return true;
      }
    }
    return Switch<S, P, K, I + 1>(pos, a, b, in, x, ok);
  }
}

// Plan P from column K on, while it pivots as P does. A sequence that takes
// over is straight-line code in the same frame, so the store carries over
// in registers; any other run goes to the dense loop.
template <const Kind& S, int P, int K>
[[gnu::always_inline]] inline bool Run(double* a, double* b,
                                       const TransitionInputs& in,
                                       double* x) {
  if constexpr (K == kN) {
    BackSubstitute<S, P>(a, b, x);
    return true;
  } else {
    if (!PlanKeepsPivot<S, P, K>(a)) {
      const int pos = PivotPosition<S, P, K>(a);
      if (pos != S.plan[P].pivot[K]) {
        if (pos < 0) return false;
        bool ok = false;
        if (Switch<S, P, K, K>(pos, a, b, in, x, &ok)) return ok;
        return SolveDense(S.slave, in, x);
      }
    }
    Eliminate<S, P, K>(a, b);
    return Run<S, P, K + 1>(a, b, in, x);
  }
}

template <const Kind& S>
bool Solve(const TransitionInputs& in, VisitCounts* v) {
  double a[S.slots];
  double b[kN];
  double x[kN];
  Assemble<S>(in, a, b);
  if (!Run<S, 0, 0>(a, b, in, x)) return false;
  (*v)[kUt] = 1.0;
  for (int c = 0; c < kNumPhases; ++c) {
    if (c != kUt) (*v)[c] = x[Unknown(c)];
  }
  return true;
}

}  // namespace

bool SolveVisitCounts(TxnType type, const TransitionInputs& in,
                      VisitCounts* v) {
  return IsSlave(type) ? Solve<kSlave>(in, v)
                       : Solve<kLocalOrCoordinator>(in, v);
}

}  // namespace carat::model
