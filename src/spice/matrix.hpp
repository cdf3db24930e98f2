// Dense linear algebra for the MNA system. CiM cell/array circuits have
// tens of nodes, so a dense LU with partial pivoting is both simpler and
// faster than a sparse solver at this scale. The Newton hot path goes one
// step further: LuPlan freezes the pivot order chosen on the first
// iteration of a solve and compiles the structural sparsity of the MNA
// matrix into an elimination schedule, so refactoring the (mostly
// unchanged) Jacobian skips the pivot search and all structurally-zero
// work.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace sfc::spice {

/// Row-major dense matrix over double (real MNA system) or
/// std::complex<double> (AC small-signal system).
template <typename T>
class DenseMatrixT {
 public:
  using Scalar = T;

  DenseMatrixT() = default;
  DenseMatrixT(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

  T& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const T& at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  void set_zero() { std::fill(data_.begin(), data_.end(), T{}); }

  /// Bitwise copy of `other`'s contents; reuses this matrix's storage when
  /// the shapes already match (the Newton baseline-restore path).
  void copy_from(const DenseMatrixT& other) {
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_.assign(other.data_.begin(), other.data_.end());
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using DenseMatrix = DenseMatrixT<double>;
using ComplexMatrix = DenseMatrixT<std::complex<double>>;

/// Solve A x = b in place (A and b are overwritten). Returns false when the
/// matrix is numerically singular (pivot below tiny threshold).
bool lu_solve(DenseMatrix& a, std::vector<double>& b);

/// Complex LU with partial pivoting; A and b are overwritten.
bool lu_solve(ComplexMatrix& a, std::vector<std::complex<double>>& b);

/// The worst row of the residual A x - b, relative to that row's magnitude
/// |b_i| + sum_j |a_ij x_j| (floored at 1e-12): the KCL residual of a
/// solution re-assembled at itself.
struct RowResidual {
  double relative = 0.0;
  std::size_t row = 0;
};
RowResidual worst_relative_residual(const DenseMatrix& a,
                                    const std::vector<double>& x,
                                    const std::vector<double>& b);

/// Compiled frozen-pivot LU. One full partial-pivot factorization records
/// the pivot order and, combined with the structural nonzero pattern of
/// the unfactored matrix, compiles a sparse elimination schedule with
/// fill-in. At every step the symbolic analysis also identifies the
/// pivot's *interchange class* — candidate rows whose fill pattern equals
/// the frozen pivot row's — and widens the envelope so any class member
/// can be swapped in without changing the compiled structure. Newton
/// iterates make near-tied pivots (structurally symmetric rows in CiM
/// arrays) trade places by ulps between solves; those flips stay inside
/// the class and cost nothing. solve_frozen() performs the exact lu_core
/// pivot search (restricted to the candidate rows, the only ones that can
/// be nonzero in the column), so every solve is bit-identical to
/// lu_solve(); a pivot that leaves the class — a genuine structural
/// change — finishes the solve densely and recompiles.
class LuPlan {
 public:
  bool valid() const { return n_ > 0; }
  void reset() { n_ = 0; }
  std::size_t size() const { return n_; }

  /// Factor-and-solve (a, b) in place with full partial pivoting —
  /// bit-identical to lu_solve() — then freeze the pivot order and compile
  /// the elimination schedule from `pattern`, the row-major structural
  /// nonzero flags (size n*n) of the *unfactored* matrix. Entries outside
  /// the pattern must be exactly zero in every matrix later passed to
  /// solve_frozen(). Returns false (plan left invalid) when the matrix is
  /// numerically singular.
  bool factor_and_compile(DenseMatrix& a, std::vector<double>& b,
                          const std::vector<char>& pattern);

  /// Factor-and-solve visiting only the compiled schedule. Each step runs
  /// the exact partial-pivot search of lu_solve() restricted to the
  /// compiled candidate rows (the only rows that can be nonzero in the
  /// pivot column), so the numeric result is bit-identical to lu_solve()
  /// by construction. A winning pivot that differs from the frozen order
  /// but stays in the interchange class is re-recorded in place at no
  /// cost; one that leaves the class finishes the solve with
  /// dense elimination from that step — still bit-identical — and
  /// recompiles the schedule around the new order (see refreeze_count()).
  /// Returns false (plan invalidated) only when the matrix is numerically
  /// singular.
  bool solve_frozen(DenseMatrix& a, std::vector<double>& b);

  /// Inner multiply-add updates the compiled schedule performs per
  /// factorization (diagnostics; dense elimination does ~n^3/3).
  std::size_t compiled_ops() const { return ops_; }

  /// Solves (since construction) whose pivot search drifted off the
  /// frozen order and re-recorded it.
  /// In-class drift is free; a steadily rising count alongside slow
  /// solves means pivots keep leaving their interchange class.
  std::size_t refreeze_count() const { return refreezes_; }

 private:
  /// Build the elimination schedule from pattern_ under swap_with_,
  /// widening each step's envelope over the pivot's interchange class.
  void compile_schedule();

  /// Finish a solve with lu_core's dense partial-pivot elimination from
  /// step k (values up to k are bit-identical to lu_core's), re-recording
  /// the order and recompiling. Returns false only on a singular matrix.
  bool solve_dense_from(std::size_t k, DenseMatrix& a,
                        std::vector<double>& b);

  std::size_t n_ = 0;
  std::size_t ops_ = 0;
  std::size_t refreezes_ = 0;
  std::vector<int> swap_with_;         ///< per step k: row swapped into k
  std::vector<char> pattern_;          ///< unfactored structural nonzeros
  std::vector<char> p_work_;           ///< symbolic-elimination scratch
  std::vector<char> kpat_;             ///< scratch: diag row pattern
  std::vector<char> upat_;             ///< scratch: class union pattern
  std::vector<double> kvals_;          ///< scratch: pivot-row gather
  std::vector<char> class_flags_;      ///< per row_idx_ entry: in class?
  std::vector<char> diag_in_class_;    ///< per step: diag row in class?
  /// Rows that once won the pivot search at a step from outside the
  /// class (per step, original row indices). compile_schedule unions
  /// them into the class so the same flip never falls back twice.
  std::vector<std::vector<int>> forced_rows_;
  // Elimination schedule, CSR-style: rows below / columns right of each
  // diagonal that can hold a nonzero (fill-in included).
  std::vector<int> row_idx_;
  std::vector<int> row_ptr_;
  std::vector<int> col_idx_;
  std::vector<int> col_ptr_;
  // Columns to exchange on a row swap at each step: the union of the
  // diagonal row's and the class rows' envelopes (everything else is an
  // exact zero in both rows).
  std::vector<int> swap_idx_;
  std::vector<int> swap_ptr_;
};

}  // namespace sfc::spice
