#include "linalg/cholesky.h"

#include <cmath>

#include "common/logging.h"

namespace easeml::linalg {

Result<Cholesky> Cholesky::Compute(const Matrix& a, double jitter) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky: matrix not square");
  }
  const int n = a.rows();
  Cholesky chol;
  chol.dim_ = n;
  chol.l_.assign(static_cast<size_t>(n) * (n + 1) / 2, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      double sum = a(i, j);
      if (i == j) sum += jitter;
      for (int k = 0; k < j; ++k) {
        sum -= chol.l_[Index(i, k)] * chol.l_[Index(j, k)];
      }
      if (i == j) {
        if (!(sum > 0.0)) {  // negated so NaN is rejected too
          return Status::InvalidArgument(
              "Cholesky: matrix not positive definite at pivot " +
              std::to_string(i));
        }
        chol.l_[Index(i, i)] = std::sqrt(sum);
      } else {
        chol.l_[Index(i, j)] = sum / chol.l_[Index(j, j)];
      }
    }
  }
  return chol;
}

Status Cholesky::Append(const std::vector<double>& b, double d) {
  if (static_cast<int>(b.size()) != dim_) {
    return Status::InvalidArgument("Cholesky::Append: wrong vector length");
  }
  // New row: l = L^{-1} b, pivot = sqrt(d - l.l).
  std::vector<double> l = SolveLower(b);
  double pivot = d;
  for (double v : l) pivot -= v * v;
  if (!(pivot > 0.0)) {  // negated so NaN is rejected too
    return Status::InvalidArgument(
        "Cholesky::Append: extension not positive definite");
  }
  l_.insert(l_.end(), l.begin(), l.end());
  l_.push_back(std::sqrt(pivot));
  ++dim_;
  return Status::OK();
}

std::vector<double> Cholesky::SolveLower(const std::vector<double>& rhs) const {
  EASEML_CHECK(static_cast<int>(rhs.size()) == dim_);
  std::vector<double> y(dim_);
  for (int i = 0; i < dim_; ++i) {
    double sum = rhs[i];
    for (int j = 0; j < i; ++j) sum -= l_[Index(i, j)] * y[j];
    y[i] = sum / l_[Index(i, i)];
  }
  return y;
}

std::vector<double> Cholesky::SolveUpper(const std::vector<double>& rhs) const {
  EASEML_CHECK(static_cast<int>(rhs.size()) == dim_);
  std::vector<double> x(dim_);
  for (int i = dim_ - 1; i >= 0; --i) {
    double sum = rhs[i];
    for (int j = i + 1; j < dim_; ++j) sum -= l_[Index(j, i)] * x[j];
    x[i] = sum / l_[Index(i, i)];
  }
  return x;
}

std::vector<double> Cholesky::Solve(const std::vector<double>& rhs) const {
  return SolveUpper(SolveLower(rhs));
}

double Cholesky::LogDet() const {
  double acc = 0.0;
  for (int i = 0; i < dim_; ++i) acc += std::log(l_[Index(i, i)]);
  return 2.0 * acc;
}

Matrix Cholesky::Reconstruct() const {
  Matrix a(dim_, dim_);
  for (int i = 0; i < dim_; ++i) {
    for (int j = 0; j < dim_; ++j) {
      double sum = 0.0;
      const int kmax = std::min(i, j);
      for (int k = 0; k <= kmax; ++k) {
        sum += l_[Index(i, k)] * l_[Index(j, k)];
      }
      a(i, j) = sum;
    }
  }
  return a;
}

}  // namespace easeml::linalg
