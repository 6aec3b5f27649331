#ifndef EASEML_LINALG_MATRIX_H_
#define EASEML_LINALG_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace easeml::linalg {

/// Dense row-major matrix of doubles.
///
/// Sized for the model-selection workload: covariance matrices over at most a
/// few hundred arms. The factorization and solves live in `Cholesky`; this
/// class is storage plus the few whole-matrix helpers its callers use.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Zero-initialized rows x cols matrix.
  Matrix(int rows, int cols);

  /// Matrix filled with `fill`.
  Matrix(int rows, int cols, double fill);

  /// Builds from row-major data. Precondition: data.size() == rows*cols.
  static Result<Matrix> FromRowMajor(int rows, int cols,
                                     std::vector<double> data);

  /// Identity matrix of dimension n.
  static Matrix Identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(int r, int c) { return data_[r * cols_ + c]; }
  double operator()(int r, int c) const { return data_[r * cols_ + c]; }

  const std::vector<double>& data() const { return data_; }

  /// Returns the r-th row as a vector.
  std::vector<double> Row(int r) const;

  /// Returns the c-th column as a vector.
  std::vector<double> Col(int c) const;

  /// Adds `v` to every diagonal entry (in place). Precondition: square.
  void AddToDiagonal(double v);

  /// Maximum absolute entry difference against `other`; infinity when shapes
  /// differ. Used by tests.
  double MaxAbsDiff(const Matrix& other) const;

  /// True if the matrix equals its transpose within `tol`.
  bool IsSymmetric(double tol = 1e-12) const;

  /// Human-readable rendering for diagnostics.
  std::string ToString(int max_rows = 8, int max_cols = 8) const;

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

}  // namespace easeml::linalg

#endif  // EASEML_LINALG_MATRIX_H_
