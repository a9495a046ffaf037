// Packed, register-tiled single-precision GEMM microkernel.
//
// PackedGemm computes C (+)= A @ B for one matrix pair, where every operand
// is addressed through explicit (row, column) element strides. Arbitrary
// strides let the caller feed transposed or otherwise strided views without
// materializing them: MatMul(Transpose(X), W) passes X's swapped strides and
// the packing loops absorb the layout change. The kernel is single-threaded
// by design — callers (tensor/ops.cc MatMul forward and both backwards)
// parallelize over batches and row blocks via ParallelFor and invoke one
// PackedGemm per disjoint output block.
//
// Internals: classic three-level blocking. The k dimension is split into
// KC-sized blocks; within a block, B is packed into NR-wide column panels
// and A into MR-tall row panels (both zero-padded at the edges), and an
// MR x NR register tile accumulates the product. Per output element the
// flop order over k is identical to a plain ordered dot product whenever
// k <= KC, and is independent of the caller's thread count either way, so
// results are deterministic run-to-run.

#ifndef STSM_TENSOR_GEMM_H_
#define STSM_TENSOR_GEMM_H_

#include <cstdint>

namespace stsm {

// Register-tile and cache-block parameters, exported so benchmarks and tests
// can reason about edge cases (m % kGemmMr, n % kGemmNr, k > kGemmKc).
// kGemmMr/kGemmNr describe the scalar reference tile; when a SIMD kernel
// table is active (see tensor/simd.h) PackedGemm packs with the table's
// wider geometry instead, bounded by kGemmMaxMr/kGemmMaxNr.
inline constexpr int64_t kGemmMr = 4;   // rows per register tile (scalar)
inline constexpr int64_t kGemmNr = 8;   // columns per register tile (scalar)
inline constexpr int64_t kGemmMaxMr = 8;   // upper bound over all kernels
inline constexpr int64_t kGemmMaxNr = 16;  // upper bound over all kernels
inline constexpr int64_t kGemmKc = 256; // k-block (packed panel depth)

// Suggested number of C rows per parallel task when callers split a single
// GEMM across the thread pool.
inline constexpr int64_t kGemmRowBlock = 64;

// Suggested number of C columns per parallel task when callers split a
// column-batched GEMM (PackedGemmSharedA) across the thread pool.
// BM_MatMulGcnShaped/50 (1536 columns, one row block) at 4 threads, median
// of 7: 154, 147, 160, 184 and 259 us for blocks of 64, 128, 256, 512 and
// 1024 columns, 337 us unsplit; /100 and /200 read level from 64 to 1024.
// Single-threaded, the block size made no difference above the noise.
inline constexpr int64_t kGemmColBlock = 256;

// C[i, j] (+)= sum_k A[i, k] * B[k, j] for i < m, j < n.
//
// Element addresses: A[i, k] = a[i * rs_a + k * cs_a], and likewise for B
// and C. When `accumulate` is false C is overwritten (and zeroed if k == 0);
// when true the product is added to the existing C values.
//
// The output block must not alias either input.
void PackedGemm(int64_t m, int64_t n, int64_t k,            //
                const float* a, int64_t rs_a, int64_t cs_a,  //
                const float* b, int64_t rs_b, int64_t cs_b,  //
                float* c, int64_t rs_c, int64_t cs_c,        //
                bool accumulate);

// Column-batched GEMM: C_g (+)= A @ B_g for every matrix g of a batch that
// shares one A, run as a single product of A against the concatenation
// [B_0 | B_1 | ...]. This is the node-mixing layout of graph propagation:
// one packed A swept over every (batch, time) feature matrix, instead of one
// small GEMM, and one re-pack of A, per matrix.
//
// Each B_g is k x width at b + b_offsets[g] (strides rs_b, cs_b); each C_g is
// m x width at c + c_offsets[g] (strides rs_c, cs_c). The call computes
// columns [col_begin, col_end) of the concatenation, where column j is
// column j % width of matrix j / width, so callers can split the product
// into disjoint column blocks. Per output element the k-order is the one
// PackedGemm uses, so the result is bitwise PackedGemm's on each matrix.
void PackedGemmSharedA(int64_t m, int64_t width, int64_t k,      //
                       const float* a, int64_t rs_a, int64_t cs_a,  //
                       const float* b, const int64_t* b_offsets,
                       int64_t rs_b, int64_t cs_b,                  //
                       float* c, const int64_t* c_offsets,
                       int64_t rs_c, int64_t cs_c,                  //
                       int64_t col_begin, int64_t col_end, bool accumulate);

// Reference implementation (triple loop, same stride convention). Used by
// tests and benchmarks as the correctness / speed baseline.
void NaiveGemm(int64_t m, int64_t n, int64_t k,             //
               const float* a, int64_t rs_a, int64_t cs_a,   //
               const float* b, int64_t rs_b, int64_t cs_b,   //
               float* c, int64_t rs_c, int64_t cs_c,         //
               bool accumulate);

}  // namespace stsm

#endif  // STSM_TENSOR_GEMM_H_
