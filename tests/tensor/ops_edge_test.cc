// Edge-case tests for tensor operations: degenerate shapes, repeated use,
// and interaction patterns the model code relies on.

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace stsm {
namespace {

TEST(OpsEdgeTest, ScalarTensorArithmetic) {
  const Tensor a = Tensor::Scalar(3.0f);
  const Tensor b = Tensor::Scalar(4.0f);
  EXPECT_FLOAT_EQ(Add(a, b).item(), 7.0f);
  EXPECT_FLOAT_EQ(Mul(a, b).item(), 12.0f);
  EXPECT_FLOAT_EQ(Sum(a).item(), 3.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 3.0f);
}

TEST(OpsEdgeTest, SingleElementDims) {
  const Tensor x = Tensor::FromVector(Shape({1, 1, 1}), {5.0f});
  EXPECT_FLOAT_EQ(Sum(x, 1).item(), 5.0f);
  EXPECT_FLOAT_EQ(Max(x, 0).item(), 5.0f);
  EXPECT_EQ(Transpose(x, 0, 2).shape(), Shape({1, 1, 1}));
}

TEST(OpsEdgeTest, SliceFullRangeIsView) {
  const Tensor x = Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  const Tensor s = Slice(x, 0, 0, 2);
  EXPECT_EQ(s.shape(), x.shape());
  EXPECT_EQ(s.data(), x.data());  // Zero-copy: aliases the base storage.
  for (int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(s.data()[i], x.data()[i]);
}

TEST(OpsEdgeTest, SliceSingleRow) {
  const Tensor x = Tensor::FromVector(Shape({3, 2}), {1, 2, 3, 4, 5, 6});
  const Tensor s = Slice(x, 0, 1, 2);
  EXPECT_EQ(s.shape(), Shape({1, 2}));
  EXPECT_FLOAT_EQ(s.at({0, 0}), 3.0f);
}

TEST(OpsEdgeTest, ConcatThreeTensors) {
  const Tensor a = Tensor::Full(Shape({1, 2}), 1.0f);
  const Tensor b = Tensor::Full(Shape({2, 2}), 2.0f);
  const Tensor c = Tensor::Full(Shape({3, 2}), 3.0f);
  const Tensor out = Concat({a, b, c}, 0);
  EXPECT_EQ(out.shape(), Shape({6, 2}));
  EXPECT_FLOAT_EQ(out.at({0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(out.at({2, 0}), 2.0f);
  EXPECT_FLOAT_EQ(out.at({5, 1}), 3.0f);
}

TEST(OpsEdgeTest, ConcatSingleTensorIsIdentityCopy) {
  const Tensor a = Tensor::FromVector(Shape({2, 2}), {1, 2, 3, 4});
  const Tensor out = Concat({a}, 1);
  EXPECT_EQ(out.shape(), a.shape());
  EXPECT_FLOAT_EQ(out.at({1, 1}), 4.0f);
}

TEST(OpsEdgeTest, IndexSelectAllRowsIdentity) {
  const Tensor x = Tensor::FromVector(Shape({3, 2}), {1, 2, 3, 4, 5, 6});
  const Tensor out = IndexSelect(x, 0, {0, 1, 2});
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_FLOAT_EQ(out.data()[i], x.data()[i]);
  }
}

TEST(OpsEdgeTest, IndexSelectSingleIndexManyTimes) {
  const Tensor x = Tensor::FromVector(Shape({2, 2}), {1, 2, 3, 4});
  const Tensor out = IndexSelect(x, 0, {1, 1, 1, 1});
  EXPECT_EQ(out.shape(), Shape({4, 2}));
  for (int64_t r = 0; r < 4; ++r) {
    EXPECT_FLOAT_EQ(out.at({r, 0}), 3.0f);
    EXPECT_FLOAT_EQ(out.at({r, 1}), 4.0f);
  }
}

TEST(OpsEdgeTest, MatMulDegenerate1xN) {
  const Tensor row = Tensor::FromVector(Shape({1, 3}), {1, 2, 3});
  const Tensor col = Tensor::FromVector(Shape({3, 1}), {4, 5, 6});
  EXPECT_FLOAT_EQ(MatMul(row, col).item(), 32.0f);
  const Tensor outer = MatMul(col, row);
  EXPECT_EQ(outer.shape(), Shape({3, 3}));
  EXPECT_FLOAT_EQ(outer.at({2, 2}), 18.0f);
}

TEST(OpsEdgeTest, SoftmaxSingleEntryDimIsOne) {
  const Tensor x = Tensor::FromVector(Shape({3, 1}), {-5, 0, 5});
  const Tensor y = Softmax(x, 1);
  for (int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(y.data()[i], 1.0f);
}

TEST(OpsEdgeTest, ReluOfReluIdempotent) {
  Rng rng(1);
  const Tensor x = Tensor::Uniform(Shape({20}), -1, 1, &rng);
  const Tensor once = Relu(x);
  const Tensor twice = Relu(once);
  for (int64_t i = 0; i < 20; ++i) {
    EXPECT_FLOAT_EQ(once.data()[i], twice.data()[i]);
  }
}

TEST(OpsEdgeTest, ChainedBackwardReusedLeaf) {
  // One leaf used in two separate graphs, backward called on both.
  Tensor x = Tensor::FromVector(Shape({2}), {1.0f, 2.0f}, true);
  Tensor l1 = Sum(Mul(x, 3.0f));
  Tensor l2 = Sum(Square(x));
  l1.Backward();
  l2.Backward();
  // dl1/dx = 3, dl2/dx = 2x; accumulated.
  EXPECT_FLOAT_EQ(x.grad_data()[0], 3.0f + 2.0f);
  EXPECT_FLOAT_EQ(x.grad_data()[1], 3.0f + 4.0f);
}

TEST(OpsEdgeTest, LongGraphChainNoStackOverflow) {
  // The backward topological sort is iterative; 20k-node chains must work.
  Tensor x = Tensor::Scalar(1.0f, /*requires_grad=*/true);
  Tensor y = x;
  for (int i = 0; i < 20000; ++i) y = Add(y, 0.0001f);
  Sum(y).Backward();
  EXPECT_FLOAT_EQ(x.grad_data()[0], 1.0f);
}

TEST(OpsEdgeTest, MeanOfDimKeepdimBroadcastsBack) {
  // Pattern used by LayerNorm: x - mean(x, -1, keepdim).
  const Tensor x =
      Tensor::FromVector(Shape({2, 3}), {1, 2, 3, 10, 20, 30});
  const Tensor centered = Sub(x, Mean(x, -1, /*keepdim=*/true));
  EXPECT_NEAR(centered.at({0, 0}), -1.0f, 1e-6);
  EXPECT_NEAR(centered.at({1, 2}), 10.0f, 1e-6);
  // Row means of the centered matrix are zero.
  const Tensor check = Mean(centered, -1);
  EXPECT_NEAR(check.at({0}), 0.0f, 1e-6);
  EXPECT_NEAR(check.at({1}), 0.0f, 1e-5);
}

TEST(OpsEdgeTest, MaximumFoldAssociative) {
  // Eq. 9/11 folds Maximum over a list; order must not matter.
  Rng rng(2);
  const Tensor a = Tensor::Uniform(Shape({10}), -1, 1, &rng);
  const Tensor b = Tensor::Uniform(Shape({10}), -1, 1, &rng);
  const Tensor c = Tensor::Uniform(Shape({10}), -1, 1, &rng);
  const Tensor left = Maximum(Maximum(a, b), c);
  const Tensor right = Maximum(a, Maximum(b, c));
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_FLOAT_EQ(left.data()[i], right.data()[i]);
  }
}

TEST(OpsEdgeTest, DetachInsideGraphStopsGradient) {
  Tensor x = Tensor::FromVector(Shape({1}), {2.0f}, true);
  Tensor y = Mul(x, x);             // dy/dx = 2x = 4.
  Tensor z = Mul(y.Detach(), x);    // z = 4 * x; dz/dx = 4.
  Sum(z).Backward();
  EXPECT_FLOAT_EQ(x.grad_data()[0], 4.0f);
}

// ---- Kernel rewrites against the loops they replaced ----------------------
//
// The suffix-broadcast binary op, Sigmoid and Conv1dTime were rewritten for
// speed with the promise of bitwise-identical output. Each is checked here
// against a plain copy of its former loop on a soup of NaN, +-Inf, -0.0,
// subnormal and ordinary values.

std::vector<float> Soup(int64_t n, uint64_t seed) {
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            -0.0f,
                            0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -1e-40f,
                            3e38f,
                            -88.5f,
                            88.5f};
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) {
    x = rng.UniformInt(3) == 0 ? specials[rng.UniformInt(11)]
                               : static_cast<float>(rng.Uniform(-4.0, 4.0));
  }
  return v;
}

// Bitwise equal, except that any NaN matches any NaN: which operand's
// payload and sign a NaN result carries is up to the compiler's operand
// order, for the reference loop as much as for the kernel.
bool SameBits(const float* got, const std::vector<float>& want) {
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    if (std::memcmp(got + i, &want[i], sizeof(float)) != 0) {
      ADD_FAILURE() << "element " << i << ": " << got[i] << " vs " << want[i];
      return false;
    }
  }
  return true;
}

TEST(KernelOracleTest, SuffixBroadcastAddEqualsModuloLoop) {
  // [B, T, N, C] + [C] (the bias add), [C] + [B, T, N, C], [N, C] + [.., N,
  // C], and rows of 1, 2 and 3, shorter than one vector register.
  struct Case {
    Shape a, b;
  };
  const Case cases[] = {{Shape({2, 3, 5, 16}), Shape({16})},
                        {Shape({16}), Shape({2, 3, 5, 16})},
                        {Shape({3, 5, 9}), Shape({5, 9})},
                        {Shape({1, 5, 9}), Shape({4, 5, 9})},
                        {Shape({4, 6, 3}), Shape({3})},
                        {Shape({7, 1}), Shape({1})},
                        {Shape({2}), Shape({5, 2})}};
  for (const bool vector : {false, true}) {
    if (vector && simd::Supported() == nullptr) continue;
    simd::SetDispatchForTesting(vector);
    for (const Case& c : cases) {
      const Tensor a = Tensor::FromVector(c.a, Soup(c.a.numel(), 1));
      const Tensor b = Tensor::FromVector(c.b, Soup(c.b.numel(), 2));
      const Shape out_shape = Shape::Broadcast(c.a, c.b);
      std::vector<float> want(static_cast<size_t>(out_shape.numel()));
      for (size_t i = 0; i < want.size(); ++i) {
        want[i] = a.data()[i % a.numel()] + b.data()[i % b.numel()];
      }
      const Tensor got = Add(a, b);
      EXPECT_EQ(got.shape(), out_shape);
      EXPECT_TRUE(SameBits(got.data(), want))
          << c.a.ToString() << " + " << c.b.ToString() << " simd " << vector;
    }
    simd::ResetDispatch();
  }
}

TEST(KernelOracleTest, SigmoidEqualsTwoExpLoop) {
  const std::vector<float> x = Soup(4096, 3);
  std::vector<float> want(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    const float v = x[i];
    want[i] = v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                        : std::exp(v) / (1.0f + std::exp(v));
  }
  const Tensor got = Sigmoid(Tensor::FromVector(Shape({4096}), x));
  EXPECT_TRUE(SameBits(got.data(), want));
}

TEST(KernelOracleTest, Conv1dTimeEqualsPerChannelLoop) {
  // c_out 16 (whole channel blocks) and 11 (blocks plus a tail), dilation 1
  // and 2, with and without bias.
  for (const int64_t c_out : {16, 11}) {
    for (const int dilation : {1, 2}) {
      for (const bool with_bias : {true, false}) {
        const int64_t batch = 2, time = 6, nodes = 5, c_in = 9, kernel = 2;
        const std::vector<float> xv = Soup(batch * time * nodes * c_in, 4);
        const std::vector<float> wv = Soup(c_out * c_in * kernel, 5);
        const std::vector<float> bv = Soup(c_out, 6);
        std::vector<float> want(
            static_cast<size_t>(batch * time * nodes * c_out), 0.0f);
        for (int64_t bt = 0; bt < batch * time; ++bt) {
          const int64_t b = bt / time;
          const int64_t t = bt % time;
          float* out_bt = want.data() + bt * nodes * c_out;
          if (with_bias) {
            for (int64_t n = 0; n < nodes; ++n) {
              for (int64_t co = 0; co < c_out; ++co) {
                out_bt[n * c_out + co] = bv[co];
              }
            }
          }
          for (int64_t kk = 0; kk < kernel; ++kk) {
            const int64_t t_in = t - (kernel - 1 - kk) * dilation;
            if (t_in < 0) continue;
            const float* x_bt = xv.data() + (b * time + t_in) * nodes * c_in;
            for (int64_t n = 0; n < nodes; ++n) {
              for (int64_t co = 0; co < c_out; ++co) {
                const float* w_row = wv.data() + (co * c_in) * kernel;
                float acc = 0.0f;
                for (int64_t ci = 0; ci < c_in; ++ci) {
                  acc += w_row[ci * kernel + kk] * x_bt[n * c_in + ci];
                }
                out_bt[n * c_out + co] += acc;
              }
            }
          }
        }
        const Tensor got = Conv1dTime(
            Tensor::FromVector(Shape({batch, time, nodes, c_in}), xv),
            Tensor::FromVector(Shape({c_out, c_in, kernel}), wv),
            with_bias ? Tensor::FromVector(Shape({c_out}), bv) : Tensor(),
            dilation);
        EXPECT_TRUE(SameBits(got.data(), want))
            << "c_out " << c_out << " dilation " << dilation << " bias "
            << with_bias;
      }
    }
  }
}

}  // namespace
}  // namespace stsm
