#ifndef EASEML_LINALG_CHOLESKY_H_
#define EASEML_LINALG_CHOLESKY_H_

#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace easeml::linalg {

/// Lower-triangular Cholesky factor L with A = L L^T.
///
/// Supports incremental extension by one row/column (`Append`), which the
/// Gaussian-process layer uses to grow the observed-arm covariance one
/// observation at a time in O(t^2) instead of refactorizing in O(t^3).
class Cholesky {
 public:
  Cholesky() = default;

  /// Factorizes a symmetric positive-definite matrix. Adds `jitter` to the
  /// diagonal before factorizing (0 disables). Fails with InvalidArgument if
  /// the matrix is not square or not positive definite.
  static Result<Cholesky> Compute(const Matrix& a, double jitter = 0.0);

  /// Current dimension t.
  int dim() const { return dim_; }

  /// Entry L(i, j) for j <= i.
  double At(int i, int j) const { return l_[Index(i, j)]; }

  /// Extends the factorization of A to that of
  ///   [A   b]
  ///   [b^T d]
  /// where `b` has length dim() and `d` is the new diagonal entry.
  /// Fails if the extended matrix is not positive definite.
  Status Append(const std::vector<double>& b, double d);

  /// Solves L y = rhs (forward substitution).
  std::vector<double> SolveLower(const std::vector<double>& rhs) const;

  /// Solves L^T x = rhs (backward substitution).
  std::vector<double> SolveUpper(const std::vector<double>& rhs) const;

  /// Solves A x = rhs where A = L L^T.
  std::vector<double> Solve(const std::vector<double>& rhs) const;

  /// log |A| = 2 * sum_i log L(i, i).
  double LogDet() const;

  /// Reconstructs A = L L^T (for testing).
  Matrix Reconstruct() const;

 private:
  static size_t Index(int i, int j) {
    // Packed lower-triangular storage: row i starts at i*(i+1)/2.
    return static_cast<size_t>(i) * (i + 1) / 2 + j;
  }

  int dim_ = 0;
  std::vector<double> l_;  // packed rows of the lower triangle
};

}  // namespace easeml::linalg

#endif  // EASEML_LINALG_CHOLESKY_H_
