#include "linalg/cholesky.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"

namespace easeml::linalg {
namespace {

/// Random SPD matrix A = B B^T + n*I.
Matrix RandomSpd(int n, easeml::Rng& rng) {
  Matrix b(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) b(i, j) = rng.Normal();
  }
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      for (int k = 0; k < n; ++k) a(i, j) += b(i, k) * b(j, k);
    }
  }
  a.AddToDiagonal(static_cast<double>(n));
  return a;
}

TEST(CholeskyTest, FactorizesKnownMatrix) {
  // A = [[4, 2], [2, 3]] has L = [[2, 0], [1, sqrt(2)]].
  Matrix a = *Matrix::FromRowMajor(2, 2, {4, 2, 2, 3});
  auto chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_DOUBLE_EQ(chol->At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(chol->At(1, 0), 1.0);
  EXPECT_NEAR(chol->At(1, 1), std::sqrt(2.0), 1e-15);
}

TEST(CholeskyTest, ReconstructRoundTrips) {
  easeml::Rng rng(42);
  for (int n : {1, 2, 5, 20}) {
    Matrix a = RandomSpd(n, rng);
    auto chol = Cholesky::Compute(a);
    ASSERT_TRUE(chol.ok()) << "n=" << n;
    EXPECT_LT(chol->Reconstruct().MaxAbsDiff(a), 1e-9) << "n=" << n;
  }
}

TEST(CholeskyTest, RejectsNonSquare) {
  EXPECT_FALSE(Cholesky::Compute(Matrix(2, 3)).ok());
}

TEST(CholeskyTest, RejectsNonPositiveDefinite) {
  Matrix a = *Matrix::FromRowMajor(2, 2, {1, 2, 2, 1});  // eigenvalue -1
  EXPECT_FALSE(Cholesky::Compute(a).ok());
  EXPECT_FALSE(Cholesky::Compute(Matrix(3, 3)).ok());  // all zeros
  // A NaN off-diagonal entry makes the second pivot NaN, which a `<= 0`
  // test would wave through.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(
      Cholesky::Compute(*Matrix::FromRowMajor(2, 2, {1, nan, nan, 1})).ok());
}

TEST(CholeskyTest, JitterRescuesSingularMatrix) {
  Matrix a(3, 3, 1.0);  // rank 1, PSD but singular
  EXPECT_FALSE(Cholesky::Compute(a).ok());
  EXPECT_TRUE(Cholesky::Compute(a, 1e-6).ok());
}

TEST(CholeskyTest, SolveMatchesDirectComputation) {
  easeml::Rng rng(7);
  Matrix a = RandomSpd(6, rng);
  std::vector<double> x_true(6);
  for (auto& v : x_true) v = rng.Normal();
  std::vector<double> b(6, 0.0);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) b[i] += a(i, j) * x_true[j];
  }
  auto chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  const std::vector<double> x = chol->Solve(b);
  for (int i = 0; i < 6; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(CholeskyTest, SolveLowerAndUpperAreConsistent) {
  easeml::Rng rng(8);
  Matrix a = RandomSpd(5, rng);
  auto chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  std::vector<double> rhs(5);
  for (auto& v : rhs) v = rng.Normal();
  // L (L^T x) = rhs  ==> Solve == SolveUpper(SolveLower(rhs)).
  const auto via_parts = chol->SolveUpper(chol->SolveLower(rhs));
  const auto direct = chol->Solve(rhs);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(via_parts[i], direct[i]);
}

TEST(CholeskyTest, LogDetMatchesKnownValue) {
  // det([[4,2],[2,3]]) = 8.
  Matrix a = *Matrix::FromRowMajor(2, 2, {4, 2, 2, 3});
  auto chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_NEAR(chol->LogDet(), std::log(8.0), 1e-12);
}

TEST(CholeskyTest, AppendMatchesBatchFactorization) {
  easeml::Rng rng(9);
  const int n = 8;
  Matrix a = RandomSpd(n, rng);
  // Incremental: factorize the leading 1x1 and append rows one by one.
  auto inc = Cholesky::Compute(*Matrix::FromRowMajor(1, 1, {a(0, 0)}));
  ASSERT_TRUE(inc.ok());
  for (int t = 1; t < n; ++t) {
    std::vector<double> b(t);
    for (int i = 0; i < t; ++i) b[i] = a(t, i);
    ASSERT_TRUE(inc->Append(b, a(t, t)).ok()) << "t=" << t;
  }
  auto batch = Cholesky::Compute(a);
  ASSERT_TRUE(batch.ok());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      EXPECT_NEAR(inc->At(i, j), batch->At(i, j), 1e-10);
    }
  }
}

TEST(CholeskyTest, AppendRejectsBadExtension) {
  auto chol = Cholesky::Compute(*Matrix::FromRowMajor(1, 1, {1.0}));
  ASSERT_TRUE(chol.ok());
  // Extension [[1, 2], [2, 1]] is indefinite.
  EXPECT_FALSE(chol->Append({2.0}, 1.0).ok());
  // Wrong vector length.
  EXPECT_FALSE(chol->Append({1.0, 2.0}, 5.0).ok());
  // A NaN pivot is rejected and leaves the factor untouched.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(chol->Append({nan}, 1.0).ok());
  EXPECT_FALSE(chol->Append({0.5}, nan).ok());
  EXPECT_EQ(chol->dim(), 1);
}

}  // namespace
}  // namespace easeml::linalg
