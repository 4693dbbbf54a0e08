#include "ml/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "kernel_tiers.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nfv::ml {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m.at(1, 2), 1.5f);
  m.at(0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(m.at(0, 1), 7.0f);
}

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
}

TEST(Matrix, FillAndZero) {
  Matrix m(2, 2, 3.0f);
  m.fill(1.0f);
  EXPECT_FLOAT_EQ(m.at(1, 1), 1.0f);
  m.zero();
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
}

TEST(Matrix, ResizeZeroesContents) {
  Matrix m(1, 1, 9.0f);
  m.resize(2, 2);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_FLOAT_EQ(m.at(1, 1), 0.0f);
}

TEST(Matrix, ElementwiseOps) {
  Matrix a(1, 3);
  Matrix b(1, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    a.at(0, i) = static_cast<float>(i + 1);
    b.at(0, i) = 2.0f;
  }
  a.add(b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 3.0f);
  a.add_scaled(b, 0.5f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 4.0f);
  a.scale(2.0f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 8.0f);
  a.hadamard(b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 16.0f);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(1, 2);
  Matrix b(2, 1);
  EXPECT_THROW(a.add(b), nfv::util::CheckError);
  EXPECT_THROW(a.hadamard(b), nfv::util::CheckError);
}

TEST(Matrix, SquaredNorm) {
  Matrix m(1, 2);
  m.at(0, 0) = 3.0f;
  m.at(0, 1) = 4.0f;
  EXPECT_DOUBLE_EQ(m.squared_norm(), 25.0);
}

TEST(Matmul, KnownProduct) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  Matrix b(2, 2);
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  b.at(1, 0) = 7;
  b.at(1, 1) = 8;
  Matrix out;
  matmul(a, b, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 19);
  EXPECT_FLOAT_EQ(out.at(0, 1), 22);
  EXPECT_FLOAT_EQ(out.at(1, 0), 43);
  EXPECT_FLOAT_EQ(out.at(1, 1), 50);
}

TEST(Matmul, InnerDimensionMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 2);
  Matrix out;
  EXPECT_THROW(matmul(a, b, out), nfv::util::CheckError);
}

TEST(MatmulTransB, MatchesExplicitTranspose) {
  Matrix a(2, 3);
  Matrix b(4, 3);  // b^T is 3x4
  float v = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = v += 0.5f;
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = v -= 0.25f;
  Matrix bt(3, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 3; ++c) bt.at(c, r) = b.at(r, c);
  }
  Matrix expected;
  matmul(a, bt, expected);
  Matrix got;
  matmul_transb(a, b, got);
  ASSERT_EQ(got.rows(), expected.rows());
  ASSERT_EQ(got.cols(), expected.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-4f);
  }
}

/// Every product entry point against an in-test chain over k in ascending
/// order — `acc = fma(a, b, acc)` in the SIMD tiers, `acc = acc + a·b` in
/// the baseline tier — in every kernel tier the CPU has, for row counts
/// that exercise the 4-row tile, the 1-row tail and batches of 1–3 rows,
/// column counts around the 16-column panel (8-lane halves, zero-padded
/// last panels and masked stores) and the AVX-512 tier's 4-, 2- and
/// 1-panel tiles, and reduction depths of the scoring and training
/// shapes. Exact equality, at 1 and 4 threads (65×128×64 crosses the
/// parallel row-block threshold); matching the same fused chain makes the
/// two SIMD tiers equal bit for bit.
TEST(PackedKernels, ShapeSweepMatchesKAscendingChainInBothTiers) {
  nfv::util::Rng rng(17);
  const auto fill = [&](Matrix& m) {
    for (float& x : m.storage()) x = static_cast<float>(rng.uniform(-1, 1));
  };
  const std::vector<std::size_t> row_counts = {1, 2,  3,  4,  5,  6,  7, 8,
                                               9, 10, 11, 12, 13, 63, 64, 65};
  const std::string missing = for_each_kernel_tier([&](KernelTier tier) {
    const bool fused = tier != KernelTier::kBaseline;
    const auto chain = [fused](const float* a, const float* b,
                               std::size_t b_stride, std::size_t kn) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < kn; ++k) {
        acc = fused ? std::fma(a[k], b[k * b_stride], acc)
                    : acc + a[k] * b[k * b_stride];
      }
      return acc;
    };
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      nfv::util::set_global_threads(threads);
      for (const std::size_t kn : {1, 17, 49, 64}) {
        for (const std::size_t cols :
             {1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 76, 128}) {
          Matrix w(cols, kn);  // matmul_transb operand (C×K)
          Matrix wt(kn, cols);  // the same weights for plain matmul (K×C)
          fill(w);
          for (std::size_t c = 0; c < cols; ++c) {
            for (std::size_t k = 0; k < kn; ++k) wt.at(k, c) = w.at(c, k);
          }
          std::vector<float> packed_t;
          std::vector<float> packed_b;
          pack_transb(w, packed_t);
          pack_matmul_b(wt, packed_b);
          for (const std::size_t rows : row_counts) {
            Matrix a(rows, kn);
            fill(a);
            Matrix transb, transb_packed, plain, plain_packed;
            matmul_transb(a, w, transb);
            matmul_transb_packed(a, w, packed_t, transb_packed);
            matmul(a, wt, plain);
            matmul_packed(a, wt, packed_b, plain_packed);
            for (std::size_t i = 0; i < rows; ++i) {
              for (std::size_t j = 0; j < cols; ++j) {
                const float want = chain(a.row(i), w.row(j), 1, kn);
                ASSERT_EQ(transb.at(i, j), want)
                    << "transb tier=" << kernel_tier_name(tier)
                    << " threads=" << threads << " " << rows << "x" << kn
                    << "x" << cols << " at (" << i << "," << j << ")";
                ASSERT_EQ(transb_packed.at(i, j), want)
                    << "transb_packed " << rows << "x" << kn << "x" << cols;
                ASSERT_EQ(plain.at(i, j), chain(a.row(i), wt.data() + j,
                                                cols, kn))
                    << "matmul " << rows << "x" << kn << "x" << cols;
                ASSERT_EQ(plain_packed.at(i, j), plain.at(i, j))
                    << "matmul_packed " << rows << "x" << kn << "x" << cols;
              }
            }
          }
        }
      }
    }
  });
  nfv::util::set_global_threads(0);
  if (!missing.empty()) GTEST_SKIP() << "CPU lacks the " << missing << " tier";
}

TEST(MatmulTransAAccumulate, AccumulatesGradientShape) {
  Matrix a(3, 2);  // e.g. (batch x out)
  Matrix b(3, 4);  // (batch x in)
  a.fill(1.0f);
  b.fill(2.0f);
  Matrix out(2, 4);
  out.fill(1.0f);
  matmul_transa_accumulate(a, b, out);
  // out += a^T b, each element = 3 * 1 * 2 = 6, plus prior 1.
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_FLOAT_EQ(out.data()[i], 7.0f);
  }
}

TEST(AddRowVector, AddsToEveryRow) {
  Matrix m(2, 3, 1.0f);
  Matrix row(1, 3);
  row.at(0, 0) = 1;
  row.at(0, 1) = 2;
  row.at(0, 2) = 3;
  add_row_vector(m, row);
  EXPECT_FLOAT_EQ(m.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(m.at(1, 2), 4.0f);
}

TEST(SumRowsAccumulate, ColumnSums) {
  Matrix m(3, 2);
  for (std::size_t r = 0; r < 3; ++r) {
    m.at(r, 0) = 1.0f;
    m.at(r, 1) = 2.0f;
  }
  Matrix out(1, 2);
  out.at(0, 0) = 10.0f;
  sum_rows_accumulate(m, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 13.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 6.0f);
}

}  // namespace
}  // namespace nfv::ml
