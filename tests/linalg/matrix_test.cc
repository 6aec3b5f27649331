#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace easeml::linalg {
namespace {

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(m(i, j), 0.0);
  }
}

TEST(MatrixTest, FillConstructor) {
  Matrix m(2, 2, 7.5);
  EXPECT_DOUBLE_EQ(m(0, 0), 7.5);
  EXPECT_DOUBLE_EQ(m(1, 1), 7.5);
}

TEST(MatrixTest, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0);
}

TEST(MatrixTest, FromRowMajorValid) {
  auto m = Matrix::FromRowMajor(2, 2, {1, 2, 3, 4});
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ((*m)(0, 1), 2);
  EXPECT_DOUBLE_EQ((*m)(1, 0), 3);
}

TEST(MatrixTest, FromRowMajorRejectsSizeMismatch) {
  EXPECT_FALSE(Matrix::FromRowMajor(2, 2, {1, 2, 3}).ok());
}

TEST(MatrixTest, Identity) {
  Matrix eye = Matrix::Identity(3);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(eye(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, RowAndCol) {
  Matrix m = *Matrix::FromRowMajor(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.Row(1), (std::vector<double>{4, 5, 6}));
  EXPECT_EQ(m.Col(2), (std::vector<double>{3, 6}));
}

TEST(MatrixTest, AddToDiagonal) {
  Matrix a(3, 3, 1.0);
  a.AddToDiagonal(0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
}

TEST(MatrixTest, IsSymmetric) {
  Matrix s = *Matrix::FromRowMajor(2, 2, {1, 2, 2, 5});
  EXPECT_TRUE(s.IsSymmetric());
  Matrix ns = *Matrix::FromRowMajor(2, 2, {1, 2, 3, 5});
  EXPECT_FALSE(ns.IsSymmetric());
  Matrix rect(2, 3);
  EXPECT_FALSE(rect.IsSymmetric());
}

TEST(MatrixTest, MaxAbsDiffShapeMismatchIsInfinite) {
  Matrix a(2, 2);
  Matrix b(3, 3);
  EXPECT_TRUE(std::isinf(a.MaxAbsDiff(b)));
}

TEST(MatrixTest, ToStringTruncates) {
  Matrix big(20, 20, 1.0);
  const std::string s = big.ToString(4, 4);
  EXPECT_NE(s.find("Matrix 20x20"), std::string::npos);
  EXPECT_NE(s.find("..."), std::string::npos);
}

}  // namespace
}  // namespace easeml::linalg
