#include "tensor/gemm.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "tensor/simd.h"

namespace stsm {

namespace {

// Pack buffers are thread_local so concurrent PackedGemm calls from the
// thread pool never share them; they grow to the high-water mark once per
// thread and are reused across calls.
thread_local std::vector<float> tl_a_pack;
thread_local std::vector<float> tl_b_pack;

// MR x NR register tile: acc[i][j] accumulates over one packed k-block.
// `a_panel` is k-major (kb x MR), `b_panel` is k-major (kb x NR); both are
// zero-padded to full tile width, so the tile loop has no edge branches.
void MicroKernel(int64_t kb, const float* a_panel, const float* b_panel,
                 float* acc) {
  static_assert(kGemmMr == 4, "zero-column skip below is written for MR == 4");
  for (int64_t kk = 0; kk < kb; ++kk) {
    const float* av = a_panel + kk * kGemmMr;
    // Adjacency-style operands are mostly zeros; a whole-column skip keeps
    // the sparse win of the old per-element kernel at dense-case branch cost
    // of one predictable test per k step.
    if (av[0] == 0.0f && av[1] == 0.0f && av[2] == 0.0f && av[3] == 0.0f) {
      continue;
    }
    const float* bv = b_panel + kk * kGemmNr;
    for (int64_t i = 0; i < kGemmMr; ++i) {
      const float a_val = av[i];
      float* row = acc + i * kGemmNr;
      for (int64_t j = 0; j < kGemmNr; ++j) row[j] += a_val * bv[j];
    }
  }
}

// Column addressing of the B and C operands. Column j of the product is
// column (first + j) of the concatenation [M_0 | M_1 | ...] of `width`-wide
// matrices; matrix g starts at element offsets[g]. A plain operand is one
// matrix: width = n, first = 0, offsets = {0}.
struct ColumnMap {
  const int64_t* offsets;
  int64_t width;
  int64_t first;
  int64_t cs;  // Column element stride within a matrix.
};

// Calls fn(j, len, offset) for each run [j, j + len) of columns [j0, j0 + jw)
// that lies inside one matrix; `offset` addresses the run's first column.
template <typename Fn>
inline void ForEachRun(const ColumnMap& map, int64_t j0, int64_t jw, Fn fn) {
  for (int64_t j = 0; j < jw;) {
    const int64_t col = map.first + j0 + j;
    const int64_t g = col / map.width;
    const int64_t within = col - g * map.width;
    const int64_t len = std::min(jw - j, map.width - within);
    fn(j, len, map.offsets[g] + within * map.cs);
    j += len;
  }
}

// The blocked GEMM behind PackedGemm and PackedGemmSharedA. Per output
// element the k-order is the same whatever the column map: each k-block is
// accumulated from zero in the register tile and then stored or added.
void GemmCore(int64_t m, int64_t n, int64_t k,             //
              const float* a, int64_t rs_a, int64_t cs_a,   //
              const float* b, int64_t rs_b, const ColumnMap& b_cols,
              float* c, int64_t rs_c, const ColumnMap& c_cols,
              bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) {
      for (int64_t i = 0; i < m; ++i) {
        ForEachRun(c_cols, 0, n, [&](int64_t, int64_t len, int64_t off) {
          float* dst = c + off + i * rs_c;
          for (int64_t j = 0; j < len; ++j) dst[j * c_cols.cs] = 0.0f;
        });
      }
    }
    return;
  }

  // Fetch the dispatch once per call: every pack/store below uses the same
  // tile geometry, and flipping dispatch mid-call (tests) cannot tear us.
  const simd::KernelTable* vk = simd::Active();
  const int64_t mr = vk != nullptr ? vk->gemm_mr : kGemmMr;
  const int64_t nr = vk != nullptr ? vk->gemm_nr : kGemmNr;
  assert(mr <= kGemmMaxMr && nr <= kGemmMaxNr);

  const int64_t n_panels = (n + nr - 1) / nr;
  tl_a_pack.resize(static_cast<size_t>(mr * kGemmKc));
  tl_b_pack.resize(static_cast<size_t>(n_panels * nr * kGemmKc));

  for (int64_t kc = 0; kc < k; kc += kGemmKc) {
    const int64_t kb = std::min(kGemmKc, k - kc);
    // On the first k-block a non-accumulating call overwrites C; every later
    // block adds on top.
    const bool overwrite = (kc == 0) && !accumulate;

    // Pack B into NR-wide, k-major panels (zero-padded past column n).
    float* b_pack = tl_b_pack.data();
    for (int64_t jp = 0; jp < n_panels; ++jp) {
      const int64_t j0 = jp * nr;
      const int64_t jw = std::min(nr, n - j0);
      float* panel = b_pack + jp * kb * nr;
      ForEachRun(b_cols, j0, jw, [&](int64_t j, int64_t len, int64_t off) {
        for (int64_t kk = 0; kk < kb; ++kk) {
          const float* src = b + off + (kc + kk) * rs_b;
          float* dst = panel + kk * nr + j;
          for (int64_t jj = 0; jj < len; ++jj) dst[jj] = src[jj * b_cols.cs];
        }
      });
      for (int64_t kk = 0; kk < kb; ++kk) {
        float* dst = panel + kk * nr;
        for (int64_t j = jw; j < nr; ++j) dst[j] = 0.0f;
      }
    }

    for (int64_t i0 = 0; i0 < m; i0 += mr) {
      const int64_t iw = std::min(mr, m - i0);
      // Pack the A row panel k-major (zero-padded past row m).
      float* a_pack = tl_a_pack.data();
      for (int64_t kk = 0; kk < kb; ++kk) {
        const float* src = a + i0 * rs_a + (kc + kk) * cs_a;
        float* dst = a_pack + kk * mr;
        for (int64_t i = 0; i < iw; ++i) dst[i] = src[i * rs_a];
        for (int64_t i = iw; i < mr; ++i) dst[i] = 0.0f;
      }

      for (int64_t jp = 0; jp < n_panels; ++jp) {
        const int64_t j0 = jp * nr;
        const int64_t jw = std::min(nr, n - j0);
        alignas(32) float acc[kGemmMaxMr * kGemmMaxNr] = {};
        if (vk != nullptr) {
          vk->gemm_micro(kb, a_pack, b_pack + jp * kb * nr, acc);
        } else {
          MicroKernel(kb, a_pack, b_pack + jp * kb * nr, acc);
        }
        ForEachRun(c_cols, j0, jw, [&](int64_t j, int64_t len, int64_t off) {
          const int64_t cs = c_cols.cs;
          for (int64_t i = 0; i < iw; ++i) {
            float* dst = c + off + (i0 + i) * rs_c;
            const float* src = acc + i * nr + j;
            if (overwrite) {
              for (int64_t jj = 0; jj < len; ++jj) dst[jj * cs] = src[jj];
            } else {
              for (int64_t jj = 0; jj < len; ++jj) dst[jj * cs] += src[jj];
            }
          }
        });
      }
    }
  }
}

}  // namespace

void PackedGemm(int64_t m, int64_t n, int64_t k,            //
                const float* a, int64_t rs_a, int64_t cs_a,  //
                const float* b, int64_t rs_b, int64_t cs_b,  //
                float* c, int64_t rs_c, int64_t cs_c,        //
                bool accumulate) {
  const int64_t origin = 0;
  GemmCore(m, n, k, a, rs_a, cs_a, b, rs_b, ColumnMap{&origin, n, 0, cs_b},
           c, rs_c, ColumnMap{&origin, n, 0, cs_c}, accumulate);
}

void PackedGemmSharedA(int64_t m, int64_t width, int64_t k,      //
                       const float* a, int64_t rs_a, int64_t cs_a,  //
                       const float* b, const int64_t* b_offsets,
                       int64_t rs_b, int64_t cs_b,                  //
                       float* c, const int64_t* c_offsets,
                       int64_t rs_c, int64_t cs_c,                  //
                       int64_t col_begin, int64_t col_end, bool accumulate) {
  GemmCore(m, col_end - col_begin, k, a, rs_a, cs_a, b, rs_b,
           ColumnMap{b_offsets, width, col_begin, cs_b}, c, rs_c,
           ColumnMap{c_offsets, width, col_begin, cs_c}, accumulate);
}

void NaiveGemm(int64_t m, int64_t n, int64_t k,             //
               const float* a, int64_t rs_a, int64_t cs_a,   //
               const float* b, int64_t rs_b, int64_t cs_b,   //
               float* c, int64_t rs_c, int64_t cs_c,         //
               bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a[i * rs_a + kk * cs_a] * b[kk * rs_b + j * cs_b];
      }
      float* dst = c + i * rs_c + j * cs_c;
      if (accumulate) {
        *dst += acc;
      } else {
        *dst = acc;
      }
    }
  }
}

}  // namespace stsm
