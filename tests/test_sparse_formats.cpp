// Unit tests for sparse storage formats: CSR, BSPC, bank-balanced,
// block-circulant — round trips, SpMV agreement with the dense oracle,
// and the memory-footprint claims BSPC makes against CSR.
#include <gtest/gtest.h>

#include <cmath>

#include "sparse/bank_balanced.hpp"
#include "sparse/block_circulant.hpp"
#include "sparse/bspc.hpp"
#include "sparse/csr.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

Matrix random_sparse(std::size_t rows, std::size_t cols, double density,
                     std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols, 0.0F);
  for (float& w : m.span()) {
    if (rng.bernoulli(density)) w = rng.normal();
  }
  return m;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  fill_normal(v.span(), rng, 1.0F);
  return v;
}

/// Random BSP-structured mask + weights pair.
struct BspFixture {
  Matrix weights;
  BlockMask mask;
};

BspFixture random_bsp(std::size_t rows, std::size_t cols, std::size_t num_r,
                      std::size_t num_c, double col_keep, double row_keep,
                      std::uint64_t seed) {
  Rng rng(seed);
  BspFixture fx{Matrix(rows, cols), BlockMask(rows, cols, num_r, num_c)};
  fill_normal(fx.weights.span(), rng, 1.0F);
  for (std::size_t s = 0; s < num_r; ++s) {
    for (std::size_t b = 0; b < num_c; ++b) {
      std::vector<std::uint32_t> kept;
      for (std::size_t c = fx.mask.col_begin(b); c < fx.mask.col_end(b);
           ++c) {
        if (rng.bernoulli(col_keep)) {
          kept.push_back(static_cast<std::uint32_t>(c));
        }
      }
      fx.mask.set_block_cols(s, b, kept);
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    fx.mask.set_row_kept(r, rng.bernoulli(row_keep));
  }
  return fx;
}

// ------------------------------------------------------------------- CSR
TEST(Csr, RoundTripAndNnz) {
  const Matrix dense = random_sparse(17, 23, 0.2, 1);
  const CsrMatrix csr = CsrMatrix::from_dense(dense);
  EXPECT_EQ(csr.nnz(), dense.count_nonzero());
  EXPECT_EQ(csr.to_dense(), dense);
}

TEST(Csr, SpmvMatchesDense) {
  const Matrix dense = random_sparse(31, 19, 0.3, 2);
  const CsrMatrix csr = CsrMatrix::from_dense(dense);
  const Vector x = random_vector(19, 3);
  Vector expected(31);
  Vector actual(31);
  gemv_naive(dense, x.span(), expected.span());
  csr.spmv(x.span(), actual.span());
  EXPECT_LT(max_abs_diff(expected.span(), actual.span()), 1e-4F);

  Vector acc(31, 1.0F);
  csr.spmv_accumulate(x.span(), acc.span());
  for (std::size_t i = 0; i < 31; ++i) {
    EXPECT_NEAR(acc[i], actual[i] + 1.0F, 1e-5F);
  }
}

TEST(Csr, ThresholdDropsSmallEntries) {
  Matrix dense(2, 2, 0.0F);
  dense(0, 0) = 0.05F;
  dense(1, 1) = 0.5F;
  const CsrMatrix csr = CsrMatrix::from_dense(dense, 0.1F);
  EXPECT_EQ(csr.nnz(), 1U);
  EXPECT_THROW(CsrMatrix::from_dense(dense, -1.0F), std::invalid_argument);
}

TEST(Csr, MemoryAccounting) {
  const Matrix dense = random_sparse(16, 16, 0.25, 4);
  const CsrMatrix csr = CsrMatrix::from_dense(dense);
  const std::size_t nnz = csr.nnz();
  EXPECT_EQ(csr.memory_bytes(4, 4), nnz * 4 + nnz * 4 + 17 * 4);
  // fp16 values halve the value payload only.
  EXPECT_EQ(csr.memory_bytes(2, 4), nnz * 2 + nnz * 4 + 17 * 4);
}

TEST(Csr, RowNnz) {
  Matrix dense(2, 3, 0.0F);
  dense(0, 1) = 1.0F;
  dense(1, 0) = 1.0F;
  dense(1, 2) = 1.0F;
  const CsrMatrix csr = CsrMatrix::from_dense(dense);
  EXPECT_EQ(csr.row_nnz(0), 1U);
  EXPECT_EQ(csr.row_nnz(1), 2U);
  EXPECT_THROW(static_cast<void>(csr.row_nnz(2)), std::invalid_argument);
}

// ------------------------------------------------------------------ BSPC
class BspcParamTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 double, double>> {};

TEST_P(BspcParamTest, RoundTripAndSpmvAgainstDenseOracle) {
  const auto [num_r, num_c, col_keep, row_keep] = GetParam();
  const BspFixture fx =
      random_bsp(24, 36, num_r, num_c, col_keep, row_keep, 7);
  Matrix masked = fx.weights;
  fx.mask.apply(masked);

  const BspcMatrix bspc = BspcMatrix::from_dense(fx.weights, fx.mask);
  EXPECT_EQ(bspc.nnz(), fx.mask.nnz());
  EXPECT_EQ(bspc.to_dense(), masked);

  const Vector x = random_vector(36, 8);
  Vector expected(24);
  Vector with_lre(24);
  Vector without_lre(24);
  gemv_naive(masked, x.span(), expected.span());
  bspc.spmv(x.span(), with_lre.span());
  bspc.spmv_no_lre(x.span(), without_lre.span());
  EXPECT_LT(max_abs_diff(expected.span(), with_lre.span()), 1e-4F);
  // LRE is an execution schedule, not a numeric change.
  EXPECT_LT(max_abs_diff(with_lre.span(), without_lre.span()), 1e-6F);
}

INSTANTIATE_TEST_SUITE_P(
    Structures, BspcParamTest,
    ::testing::Values(std::make_tuple(1, 1, 0.5, 1.0),
                      std::make_tuple(4, 6, 0.3, 1.0),
                      std::make_tuple(6, 4, 0.2, 0.6),
                      std::make_tuple(8, 9, 0.1, 0.4),
                      std::make_tuple(24, 36, 0.3, 0.8),
                      std::make_tuple(3, 5, 1.0, 1.0)));

TEST(Bspc, StripeListExecutionMatchesFullSpmv) {
  const BspFixture fx = random_bsp(30, 40, 6, 5, 0.3, 0.7, 9);
  const BspcMatrix bspc = BspcMatrix::from_dense(fx.weights, fx.mask);
  const Vector x = random_vector(40, 10);
  Vector expected(30);
  bspc.spmv(x.span(), expected.span());

  // Arbitrary stripe order must produce the same result.
  Vector actual(30, 0.0F);
  const std::vector<std::uint32_t> order = {5, 0, 3, 1, 4, 2};
  bspc.spmv_stripe_list(x.span(), actual.span(), order);
  EXPECT_LT(max_abs_diff(expected.span(), actual.span()), 1e-5F);

  // Split ranges accumulate to the same result.
  Vector split(30, 0.0F);
  bspc.spmv_stripes(x.span(), split.span(), 0, 3);
  bspc.spmv_stripes(x.span(), split.span(), 3, 6);
  EXPECT_LT(max_abs_diff(expected.span(), split.span()), 1e-5F);
}

TEST(Bspc, IndexOverheadBeatsCsr) {
  // The format's reason to exist: same nnz, far fewer index bytes. Use a
  // BSP-structured matrix (columns shared within stripes).
  const BspFixture fx = random_bsp(128, 256, 8, 8, 0.15, 1.0, 11);
  Matrix masked = fx.weights;
  fx.mask.apply(masked);
  const BspcMatrix bspc = BspcMatrix::from_dense(fx.weights, fx.mask);
  const CsrMatrix csr = CsrMatrix::from_dense(masked);
  ASSERT_EQ(bspc.nnz(), csr.nnz());
  // Compare index-only overhead (value payloads are identical).
  const std::size_t value_bytes = bspc.nnz() * 4;
  const std::size_t bspc_index = bspc.memory_bytes(4, 4) - value_bytes;
  const std::size_t csr_index = csr.memory_bytes(4, 4) - value_bytes;
  EXPECT_LT(bspc_index * 5, csr_index)
      << "BSPC index overhead should be >5x smaller than CSR's";
}

TEST(Bspc, PrunedRowsProduceZeroOutput) {
  BspFixture fx = random_bsp(12, 12, 3, 3, 0.5, 1.0, 12);
  fx.mask.set_row_kept(4, false);
  const BspcMatrix bspc = BspcMatrix::from_dense(fx.weights, fx.mask);
  const Vector x = random_vector(12, 13);
  Vector y(12);
  bspc.spmv(x.span(), y.span());
  EXPECT_FLOAT_EQ(y[4], 0.0F);
}

TEST(Bspc, ShapeValidation) {
  const BspFixture fx = random_bsp(8, 8, 2, 2, 0.5, 1.0, 14);
  const BspcMatrix bspc = BspcMatrix::from_dense(fx.weights, fx.mask);
  Vector bad_x(7);
  Vector y(8);
  EXPECT_THROW(bspc.spmv(bad_x.span(), y.span()), std::invalid_argument);
  const Matrix wrong(7, 8);
  EXPECT_THROW(BspcMatrix::from_dense(wrong, fx.mask),
               std::invalid_argument);
}

// --------------------------------------------------------- bank-balanced
TEST(BankBalanced, EveryBankKeepsExactBudget) {
  const Matrix dense = random_sparse(16, 64, 1.0, 15);
  const auto bbs = BankBalancedMatrix::from_dense(dense, 16, 3);
  EXPECT_EQ(bbs.nnz(), 16U * 4 * 3);
  const Matrix mask = bbs.keep_mask();
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t bank = 0; bank < 4; ++bank) {
      std::size_t kept = 0;
      for (std::size_t k = 0; k < 16; ++k) {
        if (mask(r, bank * 16 + k) != 0.0F) ++kept;
      }
      EXPECT_EQ(kept, 3U);
    }
  }
}

TEST(BankBalanced, KeepsLargestMagnitudes) {
  Matrix dense(1, 8, 0.0F);
  const float values[8] = {0.1F, -3.0F, 0.2F, 2.0F, -0.3F, 0.05F, 1.0F, 0.0F};
  for (std::size_t c = 0; c < 8; ++c) dense(0, c) = values[c];
  const auto bbs = BankBalancedMatrix::from_dense(dense, 8, 2);
  const Matrix back = bbs.to_dense();
  EXPECT_FLOAT_EQ(back(0, 1), -3.0F);
  EXPECT_FLOAT_EQ(back(0, 3), 2.0F);
  EXPECT_EQ(back.count_nonzero(), 2U);
}

TEST(BankBalanced, SpmvMatchesDenseOracle) {
  const Matrix dense = random_sparse(24, 48, 1.0, 16);
  const auto bbs = BankBalancedMatrix::from_dense(dense, 12, 4);
  const Matrix effective = bbs.to_dense();
  const Vector x = random_vector(48, 17);
  Vector expected(24);
  Vector actual(24);
  gemv_naive(effective, x.span(), expected.span());
  bbs.spmv(x.span(), actual.span());
  EXPECT_LT(max_abs_diff(expected.span(), actual.span()), 1e-4F);
}

TEST(BankBalanced, Validation) {
  const Matrix dense(4, 10);
  EXPECT_THROW(BankBalancedMatrix::from_dense(dense, 3, 1),
               std::invalid_argument);  // 3 does not divide 10
  EXPECT_THROW(BankBalancedMatrix::from_dense(dense, 5, 6),
               std::invalid_argument);  // keep > bank
}

// -------------------------------------------------------- block-circulant
TEST(BlockCirculant, ProjectionIsIdempotent) {
  const Matrix dense = random_sparse(16, 16, 1.0, 18);
  const auto bc = BlockCirculantMatrix::from_dense(dense, 4);
  const Matrix once = bc.to_dense();
  const Matrix twice = BlockCirculantMatrix::from_dense(once, 4).to_dense();
  EXPECT_LT(max_abs_diff(once.span(), twice.span()), 1e-5F);
}

TEST(BlockCirculant, BlocksAreCirculant) {
  const Matrix dense = random_sparse(8, 8, 1.0, 19);
  const Matrix projected = BlockCirculantMatrix::from_dense(dense, 4).to_dense();
  // Within each 4x4 block, entries on the same wrapped diagonal are equal.
  for (std::size_t br = 0; br < 2; ++br) {
    for (std::size_t bc = 0; bc < 2; ++bc) {
      for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
          const float a = projected(br * 4 + i, bc * 4 + j);
          const float b = projected(br * 4 + (i + 1) % 4,
                                    bc * 4 + (j + 1) % 4);
          EXPECT_NEAR(a, b, 1e-6F);
        }
      }
    }
  }
}

TEST(BlockCirculant, FftMatvecMatchesNaive) {
  const Matrix dense = random_sparse(24, 40, 1.0, 20);
  const auto bc = BlockCirculantMatrix::from_dense(dense, 8);  // pads cols
  const Vector x = random_vector(40, 21);
  Vector fft_out(24);
  Vector naive_out(24);
  bc.matvec(x.span(), fft_out.span());
  bc.matvec_naive(x.span(), naive_out.span());
  EXPECT_LT(max_abs_diff(fft_out.span(), naive_out.span()), 1e-3F);
}

TEST(BlockCirculant, MatvecMatchesDenseExpansion) {
  const Matrix dense = random_sparse(16, 24, 1.0, 22);
  const auto bc = BlockCirculantMatrix::from_dense(dense, 8);
  const Matrix expanded = bc.to_dense();
  const Vector x = random_vector(24, 23);
  Vector expected(16);
  Vector actual(16);
  gemv_naive(expanded, x.span(), expected.span());
  bc.matvec(x.span(), actual.span());
  EXPECT_LT(max_abs_diff(expected.span(), actual.span()), 1e-3F);
}

TEST(BlockCirculant, CompressionFactorIsBlockSize) {
  const Matrix dense = random_sparse(32, 64, 1.0, 24);
  const auto bc = BlockCirculantMatrix::from_dense(dense, 8);
  EXPECT_EQ(bc.param_count(), 32U * 64 / 8);
  EXPECT_THROW(BlockCirculantMatrix::from_dense(dense, 6),
               std::invalid_argument);
}

TEST(BlockCirculant, ProjectionMinimizesFrobenius) {
  // The diagonal-mean projection must beat any perturbed circulant.
  const Matrix dense = random_sparse(8, 8, 1.0, 25);
  const auto bc = BlockCirculantMatrix::from_dense(dense, 8);
  const Matrix projected = bc.to_dense();
  double base_err = 0.0;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    const double d = static_cast<double>(dense.span()[i]) -
                     static_cast<double>(projected.span()[i]);
    base_err += d * d;
  }
  Rng rng(26);
  for (int trial = 0; trial < 5; ++trial) {
    Matrix perturbed = projected;
    // Perturb along the circulant subspace: shift every wrapped diagonal
    // by a constant (stays circulant).
    const float eps = 0.05F * (rng.next_float() - 0.5F);
    const std::size_t d = rng.next_below(8);
    for (std::size_t i = 0; i < 8; ++i) {
      perturbed(i, (i + 8 - d) % 8) += eps;
    }
    double err = 0.0;
    for (std::size_t i = 0; i < dense.size(); ++i) {
      const double diff = static_cast<double>(dense.span()[i]) -
                          static_cast<double>(perturbed.span()[i]);
      err += diff * diff;
    }
    EXPECT_GE(err, base_err - 1e-9);
  }
}

}  // namespace
}  // namespace rtmobile
