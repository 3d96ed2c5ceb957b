#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dpbr {
namespace ops {
namespace {

TEST(OpsTest, AxpyAndScale) {
  std::vector<float> x = {1, 2, 3};
  std::vector<float> y = {10, 20, 30};
  Axpy(2.0f, x.data(), y.data(), 3);
  EXPECT_EQ(y, (std::vector<float>{12, 24, 36}));
  Scale(0.5f, y.data(), 3);
  EXPECT_EQ(y, (std::vector<float>{6, 12, 18}));
}

TEST(OpsTest, DotAndNorm) {
  std::vector<float> x = {3, 4};
  EXPECT_DOUBLE_EQ(Dot(x.data(), x.data(), 2), 25.0);
  EXPECT_DOUBLE_EQ(SquaredNorm(x.data(), 2), 25.0);
  EXPECT_DOUBLE_EQ(Norm(x.data(), 2), 5.0);
}

TEST(OpsTest, NormalizeInPlace) {
  std::vector<float> x = {3, 4};
  double original = NormalizeInPlace(x.data(), 2);
  EXPECT_DOUBLE_EQ(original, 5.0);
  EXPECT_NEAR(x[0], 0.6f, 1e-6);
  EXPECT_NEAR(x[1], 0.8f, 1e-6);
  EXPECT_NEAR(Norm(x.data(), 2), 1.0, 1e-6);
}

TEST(OpsTest, NormalizeZeroVectorIsSafe) {
  std::vector<float> z = {0, 0, 0};
  double n = NormalizeInPlace(z.data(), 3);
  EXPECT_DOUBLE_EQ(n, 0.0);
  for (float v : z) EXPECT_EQ(v, 0.0f);  // 0/eps stays 0, no NaN
}

TEST(OpsTest, MatVec) {
  // A = [[1,2],[3,4],[5,6]] (3x2), x = [1, 10].
  std::vector<float> a = {1, 2, 3, 4, 5, 6};
  std::vector<float> x = {1, 10};
  std::vector<float> out(3);
  MatVec(a.data(), x.data(), out.data(), 3, 2);
  EXPECT_EQ(out, (std::vector<float>{21, 43, 65}));
}

TEST(OpsTest, MatVecTransposed) {
  // Aᵀ·y with A as above, y = [1, 1, 1]: column sums = [9, 12].
  std::vector<float> a = {1, 2, 3, 4, 5, 6};
  std::vector<float> y = {1, 1, 1};
  std::vector<float> out(2);
  MatVecTransposed(a.data(), y.data(), out.data(), 3, 2);
  EXPECT_EQ(out, (std::vector<float>{9, 12}));
}

TEST(OpsTest, GerRankOneUpdate) {
  std::vector<float> a(6, 0.0f);  // 2x3
  std::vector<float> u = {1, 2};
  std::vector<float> v = {3, 4, 5};
  Ger(2.0f, u.data(), v.data(), a.data(), 2, 3);
  EXPECT_EQ(a, (std::vector<float>{6, 8, 10, 12, 16, 20}));
}

TEST(OpsTest, MatMulHandChecked) {
  // [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50].
  std::vector<float> a = {1, 2, 3, 4};
  std::vector<float> b = {5, 6, 7, 8};
  std::vector<float> c(4);
  MatMul(a.data(), b.data(), c.data(), 2, 2, 2);
  EXPECT_EQ(c, (std::vector<float>{19, 22, 43, 50}));
}

TEST(OpsTest, MatMulRectangular) {
  // (1x3)·(3x2).
  std::vector<float> a = {1, 2, 3};
  std::vector<float> b = {1, 0, 0, 1, 1, 1};
  std::vector<float> c(2);
  MatMul(a.data(), b.data(), c.data(), 1, 3, 2);
  EXPECT_EQ(c, (std::vector<float>{4, 5}));
}

TEST(OpsTest, VectorHelpers) {
  std::vector<float> x = {1, 2};
  std::vector<float> y = {3, 5};
  EXPECT_EQ(Add(x, y), (std::vector<float>{4, 7}));
  EXPECT_EQ(Sub(y, x), (std::vector<float>{2, 3}));
  EXPECT_EQ(Scaled(x, 3.0f), (std::vector<float>{3, 6}));
  EXPECT_DOUBLE_EQ(Dot(x, y), 13.0);
  EXPECT_DOUBLE_EQ(Norm(y), std::sqrt(34.0));
}

TEST(OpsTest, CosineSimilarity) {
  std::vector<float> x = {1, 0};
  std::vector<float> y = {0, 1};
  std::vector<float> z = {2, 0};
  std::vector<float> neg = {-1, 0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(x, y), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(x, z), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(x, neg), -1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(x, {0, 0}), 0.0);  // zero-safe
}

}  // namespace
}  // namespace ops
}  // namespace dpbr
