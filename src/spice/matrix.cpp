#include "spice/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace sfc::spice {

namespace {

/// Shared real/complex LU factor-and-solve core: partial pivoting, in-place
/// factorization, forward elimination of b fused into the sweep, back
/// substitution. Optionally records the pivot sequence (`swap_with`, the
/// row swapped into position k at step k) — LuPlan uses the recording to
/// freeze and compile the pivot order.
/// Elimination starts at step `k0`: the columns left of it must already
/// be eliminated (LuPlan's dense finish of a partly scheduled solve).
template <typename T>
bool lu_core(DenseMatrixT<T>& a, std::vector<T>& b, int* swap_with,
             std::size_t k0 = 0) {
  const std::size_t n = a.rows();
  assert(a.cols() == n);
  assert(b.size() == n);
  if (n == 0) return true;

  for (std::size_t k = k0; k < n; ++k) {
    // Pivot search in column k.
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(a.at(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(a.at(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < 1e-300) return false;
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a.at(k, c), a.at(pivot_row, c));
      }
      std::swap(b[k], b[pivot_row]);
    }
    if (swap_with) swap_with[k] = static_cast<int>(pivot_row);
    const T pivot = a.at(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const T factor = a.at(r, k) / pivot;
      if (factor == T{}) continue;
      a.at(r, k) = T{};
      for (std::size_t c = k + 1; c < n; ++c) {
        a.at(r, c) -= factor * a.at(k, c);
      }
      b[r] -= factor * b[k];
    }
  }

  // Back substitution.
  for (std::size_t ri = n; ri-- > 0;) {
    T sum = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) sum -= a.at(ri, c) * b[c];
    b[ri] = sum / a.at(ri, ri);
  }
  return true;
}

}  // namespace

bool lu_solve(DenseMatrix& a, std::vector<double>& b) {
  return lu_core(a, b, nullptr);
}

bool lu_solve(ComplexMatrix& a, std::vector<std::complex<double>>& b) {
  return lu_core(a, b, nullptr);
}

RowResidual worst_relative_residual(const DenseMatrix& a,
                                    const std::vector<double>& x,
                                    const std::vector<double>& b) {
  RowResidual worst;
  for (std::size_t i = 0; i < b.size(); ++i) {
    double r = -b[i];
    double scale = std::fabs(b[i]);
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double term = a.at(i, j) * x[j];
      r += term;
      scale += std::fabs(term);
    }
    const double rel = std::fabs(r) / std::max(scale, 1e-12);
    if (rel > worst.relative) worst = {rel, i};
  }
  return worst;
}

bool LuPlan::factor_and_compile(DenseMatrix& a, std::vector<double>& b,
                                const std::vector<char>& pattern) {
  const std::size_t n = a.rows();
  assert(pattern.size() == n * n);
  reset();
  swap_with_.assign(n, 0);
  if (!lu_core(a, b, swap_with_.data())) return false;
  pattern_.assign(pattern.begin(), pattern.end());
  n_ = n;
  kvals_.assign(n, 0.0);
  forced_rows_.assign(n, {});
  compile_schedule();
  return true;
}

void LuPlan::compile_schedule() {
  // Symbolic elimination under the frozen order (swap_with_), widened
  // over each pivot's interchange class: the candidate rows whose fill
  // pattern equals the frozen pivot row's. Any class member swapped into
  // the pivot position produces the same fill, so the only envelope
  // growth needed for pivot-robustness is giving every class row the
  // frozen pivot row's fill (the old diagonal row — pattern P_k — can
  // land on any of them). This keeps fill at order-specific scale while
  // making the ulp-level argmax flips between structurally symmetric CiM
  // rows symbolic no-ops; a pivot leaving the class at solve time takes
  // the (rare) dense-finish path instead.
  const std::size_t n = n_;
  p_work_.assign(pattern_.begin(), pattern_.end());
  std::vector<char>& p = p_work_;
  row_ptr_.assign(n + 1, 0);
  col_ptr_.assign(n + 1, 0);
  swap_ptr_.assign(n + 1, 0);
  row_idx_.clear();
  col_idx_.clear();
  swap_idx_.clear();
  class_flags_.clear();
  diag_in_class_.assign(n, 0);
  kpat_.assign(n, 0);
  upat_.assign(n, 0);
  ops_ = 0;
  for (std::size_t k = 0; k < n; ++k) {
    // Candidate rows: structurally-possible nonzeros in column k.
    const std::size_t row_begin = row_idx_.size();
    for (std::size_t r = k + 1; r < n; ++r) {
      if (p[r * n + k]) row_idx_.push_back(static_cast<int>(r));
    }
    char* krow = p.data() + k * n;
    const auto sw = static_cast<std::size_t>(swap_with_[k]);
    const std::size_t tail = n - (k + 1);
    // Class pattern: the frozen pivot row's fill, unioned with any rows
    // that once won the pivot search from outside the class (so the same
    // flip never takes the dense-finish path twice).
    const char* clsrow = p.data() + sw * n;
    if (!forced_rows_[k].empty()) {
      std::memcpy(upat_.data() + k + 1, clsrow + k + 1, tail);
      for (const int fr : forced_rows_[k]) {
        const auto r = static_cast<std::size_t>(fr);
        if (r != k && !p[r * n + k]) continue;  // no longer a candidate
        const char* rrow = p.data() + r * n;
        for (std::size_t c = k + 1; c < n; ++c) upat_[c] |= rrow[c];
      }
      clsrow = upat_.data();
    }
    // Class membership: pattern right of the pivot column is a subset of
    // the class pattern (a subset row swapped into the pivot position
    // fills strictly less, so the schedule still covers it). Decide
    // before mutating any pattern.
    const auto is_subset = [&](const char* row) {
      for (std::size_t c = k + 1; c < n; ++c) {
        if (row[c] & ~clsrow[c]) return false;
      }
      return true;
    };
    diag_in_class_[k] = sw == k || is_subset(krow);
    for (std::size_t ri = row_begin; ri < row_idx_.size(); ++ri) {
      const char* rrow =
          p.data() + static_cast<std::size_t>(row_idx_[ri]) * n;
      class_flags_.push_back(is_subset(rrow));
    }
    // Envelope update. Row k takes the class pattern (whichever class
    // member wins the pivot search has at most that pattern); class rows
    // take P_k | class (one of them receives the swapped-out diagonal
    // row); other candidates take ordinary frozen-order fill.
    std::memcpy(kpat_.data() + k + 1, krow + k + 1, tail);
    if (clsrow != krow) std::memcpy(krow + k + 1, clsrow + k + 1, tail);
    for (std::size_t ri = row_begin; ri < row_idx_.size(); ++ri) {
      char* rrow = p.data() + static_cast<std::size_t>(row_idx_[ri]) * n;
      if (class_flags_[ri]) {
        for (std::size_t c = k + 1; c < n; ++c) {
          rrow[c] = static_cast<char>(kpat_[c] | krow[c]);
        }
      } else {
        for (std::size_t c = k + 1; c < n; ++c) rrow[c] |= krow[c];
      }
    }
    const std::size_t col_begin = col_idx_.size();
    for (std::size_t c = k + 1; c < n; ++c) {
      if (krow[c]) col_idx_.push_back(static_cast<int>(c));
      if (krow[c] | kpat_[c]) swap_idx_.push_back(static_cast<int>(c));
    }
    ops_ += (row_idx_.size() - row_begin) * (col_idx_.size() - col_begin);
    row_ptr_[k + 1] = static_cast<int>(row_idx_.size());
    col_ptr_[k + 1] = static_cast<int>(col_idx_.size());
    swap_ptr_[k + 1] = static_cast<int>(swap_idx_.size());
  }
}

bool LuPlan::solve_frozen(DenseMatrix& a, std::vector<double>& b) {
  const std::size_t n = n_;
  assert(valid());
  assert(a.rows() == n && a.cols() == n && b.size() == n);

  bool drifted = false;
  for (std::size_t k = 0; k < n; ++k) {
    // Exact partial-pivot search over the candidate rows. Rows outside the
    // compiled candidate set hold exact zeros in column k, so this IS the
    // full column scan of lu_core: increasing row order with a strict `>`
    // (lowest row wins ties) — the numeric pivot choice is bit-identical
    // to full pivoting by construction.
    const int* rows = row_idx_.data() + row_ptr_[k];
    const int nrows = row_ptr_[k + 1] - row_ptr_[k];
    if (nrows == 0) {
      // No structurally-possible pivot alternative and nothing below the
      // diagonal to eliminate.
      if (std::fabs(a.at(k, k)) < 1e-300) {
        reset();
        return false;
      }
      continue;
    }
    std::size_t pivot_row = k;
    int pivot_ri = -1;  // index into rows[] when pivot_row != k
    double pivot_mag = std::fabs(a.at(k, k));
    for (int ri = 0; ri < nrows; ++ri) {
      const auto r = static_cast<std::size_t>(rows[ri]);
      const double m = std::fabs(a.at(r, k));
      if (m > pivot_mag) {
        pivot_mag = m;
        pivot_row = r;
        pivot_ri = ri;
      }
    }
    if (pivot_mag < 1e-300) {
      reset();
      return false;
    }
    if (pivot_row != static_cast<std::size_t>(swap_with_[k])) {
      // Pivot drifted off the frozen order (near-tied rows trading places
      // by ulps). Inside the interchange class the compiled structure
      // already covers the swap: re-record and carry on. A pivot outside
      // the class changes the fill — finish densely from here
      // (bit-identical: only structural zeros were skipped so far) and
      // recompile around the new order.
      const bool in_class = pivot_row == k
                                ? diag_in_class_[k] != 0
                                : class_flags_[static_cast<std::size_t>(
                                      row_ptr_[k] + pivot_ri)] != 0;
      if (!in_class) {
        // Remember both flip partners so the recompile widens the class
        // over them — a recurring flip between incomparable rows then
        // stays on the compiled path.
        std::vector<int>& forced = forced_rows_[k];
        for (const int fr : {swap_with_[k], static_cast<int>(pivot_row)}) {
          if (std::find(forced.begin(), forced.end(), fr) == forced.end()) {
            forced.push_back(fr);
          }
        }
        return solve_dense_from(k, a, b);
      }
      drifted = true;
      swap_with_[k] = static_cast<int>(pivot_row);
    }
    if (pivot_row != k) {
      // Exchange only the compiled swap columns — both rows hold exact
      // zeros left of the diagonal and outside the class envelope.
      double* krow_v = a.data() + k * n;
      double* prow_v = a.data() + pivot_row * n;
      std::swap(krow_v[k], prow_v[k]);
      const int* scols = swap_idx_.data() + swap_ptr_[k];
      const int nscols = swap_ptr_[k + 1] - swap_ptr_[k];
      for (int ci = 0; ci < nscols; ++ci) {
        const auto c = static_cast<std::size_t>(scols[ci]);
        std::swap(krow_v[c], prow_v[c]);
      }
      std::swap(b[k], b[pivot_row]);
    }
    // Eliminate over the compiled schedule only. After the swap the old
    // row k sits at `pivot_row`, which is in the candidate set, so every
    // possibly-nonzero row below the diagonal is visited. The pivot row's
    // compiled columns are gathered into a scratch first: rows[] never
    // contains k, so the pivot row is loop-invariant, but the compiler
    // cannot prove arow and krow do not alias.
    const double pivot = a.at(k, k);
    const double bk = b[k];
    const int* cols = col_idx_.data() + col_ptr_[k];
    const int ncols = col_ptr_[k + 1] - col_ptr_[k];
    {
      const double* krow = a.data() + k * n;
      for (int ci = 0; ci < ncols; ++ci) {
        kvals_[static_cast<std::size_t>(ci)] =
            krow[static_cast<std::size_t>(cols[ci])];
      }
    }
    for (int ri = 0; ri < nrows; ++ri) {
      const auto r = static_cast<std::size_t>(rows[ri]);
      const double ark = a.at(r, k);
      if (ark == 0.0) continue;  // factor would be (+-)0: nothing to do
      const double factor = ark / pivot;
      a.at(r, k) = 0.0;
      double* arow = a.data() + r * n;
      for (int ci = 0; ci < ncols; ++ci) {
        const auto c = static_cast<std::size_t>(cols[ci]);
        arow[c] -= factor * kvals_[static_cast<std::size_t>(ci)];
      }
      b[r] -= factor * bk;
    }
  }

  // Back substitution over the compiled U structure.
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = b[ri];
    const double* arow = a.data() + ri * n;
    const int* cols = col_idx_.data() + col_ptr_[ri];
    const int ncols = col_ptr_[ri + 1] - col_ptr_[ri];
    for (int ci = 0; ci < ncols; ++ci) {
      const auto c = static_cast<std::size_t>(cols[ci]);
      sum -= arow[c] * b[c];
    }
    b[ri] = sum / a.at(ri, ri);
  }

  if (drifted) ++refreezes_;
  return true;
}

bool LuPlan::solve_dense_from(std::size_t k0, DenseMatrix& a,
                              std::vector<double>& b) {
  // Continue with full partial pivoting. Entries the schedule skipped so
  // far are exact structural zeros, so the matrix holds bit-identical
  // values to a dense factorization at step k0 and lu_core's tail from k0
  // gives lu_solve's bits, re-recording the order as it goes.
  if (!lu_core(a, b, swap_with_.data(), k0)) {
    reset();
    return false;
  }
  ++refreezes_;
  compile_schedule();
  return true;
}

}  // namespace sfc::spice
