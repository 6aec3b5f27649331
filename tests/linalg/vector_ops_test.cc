#include "linalg/vector_ops.h"

#include <gtest/gtest.h>

#include <vector>

namespace easeml::linalg {
namespace {

TEST(VectorOpsTest, Dot) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Dot({}, {}), 0.0);
}

TEST(VectorOpsTest, SquaredDistance) {
  EXPECT_DOUBLE_EQ(SquaredDistance({1, 1}, {4, 5}), 25.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({2, 2}, {2, 2}), 0.0);
}

}  // namespace
}  // namespace easeml::linalg
