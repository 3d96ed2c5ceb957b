#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/group_norm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace dpbr {
namespace nn {
namespace {

// Layers run only inside a Sequential's plan; a lone layer is a
// one-group stage. These helpers drive a model on a batch of one.

template <typename L, typename... Args>
L* AddLayer(Sequential* m, Args&&... args) {
  auto layer = std::make_unique<L>(std::forward<Args>(args)...);
  L* raw = layer.get();
  m->Add(std::move(layer));
  return raw;
}

Tensor Reshaped(const Tensor& t, std::vector<size_t> shape) {
  auto r = t.Reshape(std::move(shape));
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

Tensor WithBatchOfOne(const Tensor& x) {
  std::vector<size_t> shape = {1};
  shape.insert(shape.end(), x.shape().begin(), x.shape().end());
  return Reshaped(x, shape);
}

Tensor WithoutBatch(const Tensor& y) {
  return Reshaped(y, std::vector<size_t>(y.shape().begin() + 1,
                                         y.shape().end()));
}

Tensor Forward1(Sequential* m, const Tensor& x) {
  return WithoutBatch(m->ForwardBatch(WithBatchOfOne(x)));
}

// Backward of one example after Forward1; returns dL/dx.
Tensor Backward1(Sequential* m, const Tensor& gy) {
  std::vector<float> row(std::max<size_t>(1, m->NumParams()));
  return WithoutBatch(m->BackwardBatchTo(WithBatchOfOne(gy), 1, row.data()));
}

TEST(LinearTest, ForwardHandComputed) {
  Sequential m;
  Linear& l = *AddLayer<Linear>(&m, 2, 2);
  auto params = l.Params();
  // W = [[1, 2], [3, 4]], b = [10, 20].
  params[0].value[0] = 1;
  params[0].value[1] = 2;
  params[0].value[2] = 3;
  params[0].value[3] = 4;
  params[1].value[0] = 10;
  params[1].value[1] = 20;
  Tensor y = Forward1(&m, Tensor({2}, {1, 1}));
  EXPECT_FLOAT_EQ(y[0], 13.0f);
  EXPECT_FLOAT_EQ(y[1], 27.0f);
}

TEST(LinearTest, BackwardWritesOneRowPerExample) {
  Sequential m;
  Linear& l = *AddLayer<Linear>(&m, 1, 1);
  l.Params()[0].value[0] = 2.0f;
  // Each example's (dW, db) lands in its own sink row, never summed
  // across the microbatch: the separation DP clipping needs.
  m.ForwardBatch(Tensor({2, 1}, {3.0f, 5.0f}));
  std::vector<float> rows(2 * m.NumParams());
  Tensor dx = m.BackwardBatchTo(Tensor({2, 1}, {1.0f, 2.0f}), 2, rows.data());
  EXPECT_FLOAT_EQ(rows[0], 3.0f);   // dW_0 = 1*3
  EXPECT_FLOAT_EQ(rows[1], 1.0f);   // db_0 = 1
  EXPECT_FLOAT_EQ(rows[2], 10.0f);  // dW_1 = 2*5
  EXPECT_FLOAT_EQ(rows[3], 2.0f);   // db_1 = 2
  EXPECT_FLOAT_EQ(dx[0], 2.0f);     // dx_0 = 1*W
  EXPECT_FLOAT_EQ(dx[1], 4.0f);     // dx_1 = 2*W
}

TEST(EluTest, ForwardValues) {
  Sequential m;
  AddLayer<Elu>(&m, 1.0);
  Tensor y = Forward1(&m, Tensor({3}, {1.0f, 0.0f, -1.0f}));
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_NEAR(y[2], std::exp(-1.0) - 1.0, 1e-6);
}

TEST(ReluTest, ForwardAndMask) {
  Sequential m;
  AddLayer<Relu>(&m);
  Tensor y = Forward1(&m, Tensor({3}, {2.0f, -3.0f, 0.5f}));
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  Tensor dx = Backward1(&m, Tensor({3}, {1.0f, 1.0f, 1.0f}));
  EXPECT_FLOAT_EQ(dx[0], 1.0f);
  EXPECT_FLOAT_EQ(dx[1], 0.0f);
  EXPECT_FLOAT_EQ(dx[2], 1.0f);
}

TEST(Conv2dTest, IdentityKernel) {
  // A single 1x1 kernel with weight 1 reproduces the input channel.
  Sequential m;
  AddLayer<Conv2d>(&m, 1, 1, 1, 0)->Params()[0].value[0] = 1.0f;
  Tensor x({1, 2, 2}, {1, 2, 3, 4});
  Tensor y = Forward1(&m, x);
  for (size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2dTest, OutputShapeNoPadding) {
  Sequential m;
  AddLayer<Conv2d>(&m, 1, 3, 3, 0);
  Tensor y = Forward1(&m, Tensor({1, 8, 8}));
  EXPECT_EQ(y.shape(), (std::vector<size_t>{3, 6, 6}));
}

TEST(Conv2dTest, OutputShapeSamePadding) {
  Sequential m;
  AddLayer<Conv2d>(&m, 2, 4, 3, 1);
  Tensor y = Forward1(&m, Tensor({2, 8, 8}));
  EXPECT_EQ(y.shape(), (std::vector<size_t>{4, 8, 8}));
}

TEST(Conv2dTest, SumKernelHandComputed) {
  // 2x2 all-ones kernel: each output is the sum of a 2x2 input patch.
  Sequential m;
  auto params = AddLayer<Conv2d>(&m, 1, 1, 2, 0)->Params();
  for (size_t i = 0; i < 4; ++i) params[0].value[i] = 1.0f;
  Tensor y = Forward1(&m, Tensor({1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(y.shape(), (std::vector<size_t>{1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 12.0f);  // 1+2+4+5
  EXPECT_FLOAT_EQ(y[1], 16.0f);  // 2+3+5+6
  EXPECT_FLOAT_EQ(y[2], 24.0f);  // 4+5+7+8
  EXPECT_FLOAT_EQ(y[3], 28.0f);  // 5+6+8+9
}

TEST(GroupNormTest, NormalizesPerGroup) {
  Sequential m;
  AddLayer<GroupNorm>(&m, 2, 4, 1e-8);
  SplitRng rng(3);
  Tensor x({4, 3, 3});
  x.FillGaussian(&rng, 5.0);
  Tensor y = Forward1(&m, x);
  // Each group (2 channels x 9 pixels = 18 values) has mean 0, var 1.
  for (size_t g = 0; g < 2; ++g) {
    double mean = 0.0, var = 0.0;
    for (size_t i = 0; i < 18; ++i) mean += y[g * 18 + i];
    mean /= 18.0;
    for (size_t i = 0; i < 18; ++i) {
      double d = y[g * 18 + i] - mean;
      var += d * d;
    }
    var /= 18.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(GroupNormTest, AffineScalesOutput) {
  Sequential m;
  auto params = AddLayer<GroupNorm>(&m, 1, 2)->Params();
  ASSERT_EQ(params.size(), 2u);
  params[0].value[0] = 3.0f;  // γ_0
  params[1].value[1] = 7.0f;  // β_1
  Tensor x({2, 1, 2}, {1, 2, 3, 4});
  Tensor y = Forward1(&m, x);
  // Channel 0 scaled by 3, channel 1 shifted by 7 — check the shift
  // against the unscaled normalization of the same input.
  Sequential plain;
  AddLayer<GroupNorm>(&plain, 1, 2);
  Tensor y0 = Forward1(&plain, x);
  EXPECT_NEAR(y[0], 3.0f * y0[0], 1e-5);
  EXPECT_NEAR(y[3], y0[3] + 7.0f, 1e-5);
}

TEST(GroupNormTest, NoAffineHasNoParams) {
  GroupNorm gn(2, 4, 1e-5, /*affine=*/false);
  EXPECT_TRUE(gn.Params().empty());
  EXPECT_EQ(gn.NumParams(), 0u);
}

TEST(AdaptiveAvgPoolTest, ExactDivision) {
  Sequential m;
  AddLayer<AdaptiveAvgPool2d>(&m, 2, 2);
  Tensor x({1, 4, 4});
  for (size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  Tensor y = Forward1(&m, x);
  // Top-left 2x2 block: (0+1+4+5)/4 = 2.5.
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1), 4.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 0), 10.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1), 12.5f);
}

TEST(AdaptiveAvgPoolTest, UnevenRegions) {
  Sequential m;
  AddLayer<AdaptiveAvgPool2d>(&m, 2, 2);
  Tensor x({1, 5, 5});
  x.Fill(1.0f);
  Tensor y = Forward1(&m, x);
  // Averages of all-ones are 1 regardless of region geometry.
  for (size_t i = 0; i < y.size(); ++i) EXPECT_FLOAT_EQ(y[i], 1.0f);
}

TEST(AdaptiveAvgPoolTest, GlobalPooling) {
  Sequential m;
  AddLayer<AdaptiveAvgPool2d>(&m, 1, 1);
  Tensor x({2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor y = Forward1(&m, x);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 25.0f);
}

TEST(FlattenTest, RoundTrip) {
  Sequential m;
  AddLayer<Flatten>(&m);
  Tensor x({2, 3, 4});
  Tensor y = Forward1(&m, x);
  EXPECT_EQ(y.shape(), (std::vector<size_t>{24}));
  Tensor back = Backward1(&m, y);
  EXPECT_EQ(back.shape(), (std::vector<size_t>{2, 3, 4}));
}

TEST(SoftmaxTest, Properties) {
  Tensor logits({3}, {1.0f, 2.0f, 3.0f});
  std::vector<double> p = Softmax(logits);
  double sum = p[0] + p[1] + p[2];
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
  // Shift invariance.
  Tensor shifted({3}, {101.0f, 102.0f, 103.0f});
  std::vector<double> q = Softmax(shifted);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(p[i], q[i], 1e-9);
}

TEST(SoftmaxTest, ArgmaxAndLoss) {
  Tensor logits({4}, {0.1f, 3.0f, -1.0f, 0.5f});
  EXPECT_EQ(Argmax(logits), 1u);
  LossGrad lg = SoftmaxCrossEntropy(logits, 1);
  EXPECT_GT(lg.loss, 0.0);
  // Gradient sums to zero (softmax minus one-hot).
  double s = 0.0;
  for (size_t i = 0; i < 4; ++i) s += lg.grad_logits[i];
  EXPECT_NEAR(s, 0.0, 1e-6);
  EXPECT_LT(lg.grad_logits[1], 0.0f);  // true-class grad is negative
}

TEST(SequentialTest, FlatParamRoundTrip) {
  Sequential m;
  m.Add(std::make_unique<Linear>(3, 2));
  m.Add(std::make_unique<Elu>());
  m.Add(std::make_unique<Linear>(2, 2));
  SplitRng rng(5);
  m.InitParams(&rng);
  std::vector<float> p = m.FlatParams();
  EXPECT_EQ(p.size(), m.NumParams());
  EXPECT_EQ(p.size(), 3u * 2 + 2 + 2 * 2 + 2);
  // Perturb then restore.
  std::vector<float> p2 = p;
  for (auto& v : p2) v += 1.0f;
  m.SetParamsFrom(p2.data());
  EXPECT_EQ(m.FlatParams(), p2);
  m.SetParamsFrom(p.data());
  EXPECT_EQ(m.FlatParams(), p);
}

TEST(SequentialTest, InitIsDeterministicPerLayer) {
  Sequential a, b;
  for (Sequential* m : {&a, &b}) {
    m->Add(std::make_unique<Linear>(4, 4));
    m->Add(std::make_unique<Linear>(4, 2));
  }
  SplitRng r1(9), r2(9);
  a.InitParams(&r1);
  b.InitParams(&r2);
  EXPECT_EQ(a.FlatParams(), b.FlatParams());
}

}  // namespace
}  // namespace nn
}  // namespace dpbr
