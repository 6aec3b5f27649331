#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/logging.h"

namespace easeml::linalg {

Matrix::Matrix(int rows, int cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows) * cols, 0.0) {
  EASEML_CHECK(rows >= 0 && cols >= 0);
}

Matrix::Matrix(int rows, int cols, double fill)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows) * cols, fill) {
  EASEML_CHECK(rows >= 0 && cols >= 0);
}

Result<Matrix> Matrix::FromRowMajor(int rows, int cols,
                                    std::vector<double> data) {
  if (rows < 0 || cols < 0 ||
      data.size() != static_cast<size_t>(rows) * cols) {
    return Status::InvalidArgument("FromRowMajor: size mismatch");
  }
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(data);
  return m;
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

std::vector<double> Matrix::Row(int r) const {
  EASEML_DCHECK(r >= 0 && r < rows_);
  return std::vector<double>(data_.begin() + static_cast<size_t>(r) * cols_,
                             data_.begin() + static_cast<size_t>(r + 1) * cols_);
}

std::vector<double> Matrix::Col(int c) const {
  EASEML_DCHECK(c >= 0 && c < cols_);
  std::vector<double> out(rows_);
  for (int r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::AddToDiagonal(double v) {
  EASEML_CHECK(rows_ == cols_);
  for (int i = 0; i < rows_; ++i) (*this)(i, i) += v;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    worst = std::max(worst, std::fabs(data_[i] - other.data_[i]));
  }
  return worst;
}

bool Matrix::IsSymmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (int i = 0; i < rows_; ++i) {
    for (int j = i + 1; j < cols_; ++j) {
      if (std::fabs((*this)(i, j) - (*this)(j, i)) > tol) return false;
    }
  }
  return true;
}

std::string Matrix::ToString(int max_rows, int max_cols) const {
  std::ostringstream os;
  os << "Matrix " << rows_ << "x" << cols_ << "\n";
  const int r_show = std::min(rows_, max_rows);
  const int c_show = std::min(cols_, max_cols);
  os << std::setprecision(5);
  for (int i = 0; i < r_show; ++i) {
    os << "  [";
    for (int j = 0; j < c_show; ++j) {
      if (j > 0) os << ", ";
      os << (*this)(i, j);
    }
    if (c_show < cols_) os << ", ...";
    os << "]\n";
  }
  if (r_show < rows_) os << "  ...\n";
  return os.str();
}

}  // namespace easeml::linalg
