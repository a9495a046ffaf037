// Oracle for MatMul's batch folds: the column fold of a shared left operand
// (Â·X, one GEMM against every (batch, time) matrix) and the row fold of a
// shared 2-D right operand (X·W, one GEMM over the stacked rows). Forward
// and dX must be bitwise a per-batch PackedGemm loop, in both dispatch
// modes. This file builds into two binaries that pin the global pool to 1
// and to 4 workers (STSM_TEST_THREADS) before it is first created, so the
// folds' row x column task split is checked against the thread count too.

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

#define STSM_FOLD_CAT2(a, b) a##b
#define STSM_FOLD_CAT(a, b) STSM_FOLD_CAT2(a, b)
#define STSM_FOLD_SUITE STSM_FOLD_CAT(MatMulFoldThreads, STSM_TEST_THREADS)
#define STSM_FOLD_STR2(x) #x
#define STSM_FOLD_STR(x) STSM_FOLD_STR2(x)

namespace stsm {
namespace {

const bool g_threads_pinned = [] {
  setenv("STSM_NUM_THREADS", STSM_FOLD_STR(STSM_TEST_THREADS),
         /*overwrite=*/1);
  return true;
}();

std::vector<float> Values(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return v;
}

Tensor FromValues(const std::vector<float>& v, const Shape& shape,
                  bool requires_grad = false) {
  return Tensor::FromVector(shape, v, requires_grad);
}

void ExpectBitwise(const float* got, const std::vector<float>& want,
                   const std::string& what) {
  for (size_t i = 0; i < want.size(); ++i) {
    uint32_t g = 0, w = 0;
    std::memcpy(&g, got + i, 4);
    std::memcpy(&w, &want[i], 4);
    ASSERT_EQ(g, w) << what << " element " << i << ": " << got[i] << " vs "
                    << want[i];
  }
}

// Runs `body` with the scalar kernels and, where the machine has them, the
// SIMD kernels.
template <typename Body>
void ForEachDispatch(Body body) {
  simd::SetDispatchForTesting(false);
  body("scalar");
  simd::ResetDispatch();
  if (simd::Supported() != nullptr) {
    simd::SetDispatchForTesting(true);
    body("simd");
    simd::ResetDispatch();
  }
}

struct FoldCase {
  int64_t batches;  // Leading matrices, B * T.
  int64_t m, k, n;
};

// m % mr != 0 for both tiles (4 and 6) and m spanning two row blocks;
// batches * n % nr != 0 and spanning several column blocks; k > kGemmKc.
const FoldCase kCases[] = {
    {6, 70, 70, 7},     // ragged tiles, 42 columns
    {21, 13, 13, 7},    // 147 columns: two column blocks
    {3, 301, 301, 5},   // k > kGemmKc
    {96, 84, 84, 16},   // the STSM propagation shape at batch 8
};

TEST(STSM_FOLD_SUITE, PoolHasPinnedThreadCount) {
  ASSERT_TRUE(g_threads_pinned);
  EXPECT_EQ(ThreadPool::Global().num_threads(), STSM_TEST_THREADS);
}

// Â [m, k] @ X [batches, k, n]: forward and dX = Âᵀ dY per batch.
TEST(STSM_FOLD_SUITE, SharedLeftOperandEqualsPerBatchGemm) {
  ForEachDispatch([](const char* mode) {
    for (const FoldCase& c : kCases) {
      SCOPED_TRACE(::testing::Message()
                   << mode << " batches " << c.batches << " m " << c.m
                   << " k " << c.k << " n " << c.n);
      const std::vector<float> a = Values(c.m * c.k, 1);
      const std::vector<float> x = Values(c.batches * c.k * c.n, 2);
      const std::vector<float> g = Values(c.batches * c.m * c.n, 3);
      const Tensor at = FromValues(a, Shape({c.m, c.k}));
      const Tensor xt = FromValues(x, Shape({c.batches, c.k, c.n}), true);
      const Tensor y = MatMul(at, xt);
      Sum(Mul(y, FromValues(g, y.shape()))).Backward();

      std::vector<float> want_y(g.size());
      std::vector<float> want_dx(x.size(), 0.0f);
      for (int64_t b = 0; b < c.batches; ++b) {
        PackedGemm(c.m, c.n, c.k, a.data(), c.k, 1,             //
                   x.data() + b * c.k * c.n, c.n, 1,            //
                   want_y.data() + b * c.m * c.n, c.n, 1, false);
        PackedGemm(c.k, c.n, c.m, a.data(), 1, c.k,             // Âᵀ
                   g.data() + b * c.m * c.n, c.n, 1,            //
                   want_dx.data() + b * c.k * c.n, c.n, 1, true);
      }
      ExpectBitwise(y.data(), want_y, "forward");
      ExpectBitwise(xt.grad_data(), want_dx, "dX");
    }
  });
}

// X [batches, m, k] @ W [k, n]: forward and dX = dY Wᵀ per batch.
TEST(STSM_FOLD_SUITE, SharedRightOperandEqualsPerBatchGemm) {
  ForEachDispatch([](const char* mode) {
    for (const FoldCase& c : kCases) {
      SCOPED_TRACE(::testing::Message()
                   << mode << " batches " << c.batches << " m " << c.m
                   << " k " << c.k << " n " << c.n);
      const std::vector<float> x = Values(c.batches * c.m * c.k, 4);
      const std::vector<float> w = Values(c.k * c.n, 5);
      const std::vector<float> g = Values(c.batches * c.m * c.n, 6);
      const Tensor xt = FromValues(x, Shape({c.batches, c.m, c.k}), true);
      const Tensor wt = FromValues(w, Shape({c.k, c.n}));
      const Tensor y = MatMul(xt, wt);
      Sum(Mul(y, FromValues(g, y.shape()))).Backward();

      std::vector<float> want_y(g.size());
      std::vector<float> want_dx(x.size(), 0.0f);
      for (int64_t b = 0; b < c.batches; ++b) {
        PackedGemm(c.m, c.n, c.k, x.data() + b * c.m * c.k, c.k, 1,  //
                   w.data(), c.n, 1,                                 //
                   want_y.data() + b * c.m * c.n, c.n, 1, false);
        PackedGemm(c.m, c.k, c.n, g.data() + b * c.m * c.n, c.n, 1,  //
                   w.data(), 1, c.n,                                 // Wᵀ
                   want_dx.data() + b * c.m * c.k, c.k, 1, true);
      }
      ExpectBitwise(y.data(), want_y, "forward");
      ExpectBitwise(xt.grad_data(), want_dx, "dX");
    }
  });
}

// The column fold reads X through its batch strides: a time-sliced view
// (what the last ST block propagates) folds without a copy.
TEST(STSM_FOLD_SUITE, SharedLeftOperandOverStridedBatchView) {
  ForEachDispatch([](const char* mode) {
    SCOPED_TRACE(mode);
    const int64_t batch = 3, time = 5, nodes = 13, ch = 7;
    const std::vector<float> a = Values(nodes * nodes, 7);
    const std::vector<float> x = Values(batch * time * nodes * ch, 8);
    const Tensor at = FromValues(a, Shape({nodes, nodes}));
    const Tensor xt = FromValues(x, Shape({batch, time, nodes, ch}));
    const Tensor y = MatMul(at, Slice(xt, 1, time - 2, time));
    ASSERT_EQ(y.shape(), Shape({batch, 2, nodes, ch}));
    std::vector<float> want(static_cast<size_t>(y.numel()));
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t t = 0; t < 2; ++t) {
        PackedGemm(nodes, ch, nodes, a.data(), nodes, 1,
                   x.data() + (b * time + time - 2 + t) * nodes * ch, ch, 1,
                   want.data() + (b * 2 + t) * nodes * ch, ch, 1, false);
      }
    }
    ExpectBitwise(y.data(), want, "forward");
  });
}

}  // namespace
}  // namespace stsm
