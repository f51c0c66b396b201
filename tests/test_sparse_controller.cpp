/**
 * @file
 * Integration tests for the sparse (SIGMA-like) memory controller:
 * functional exactness, data-dependent timing, format front doors and
 * scheduling interactions.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hpp"
#include "engine/accelerator.hpp"
#include "tensor/prune.hpp"
#include "tensor/reference.hpp"
#include "exact_operands.hpp"

namespace stonne {
namespace {

Tensor
sparseMatrix(index_t rows, index_t cols, double sparsity,
             std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t({rows, cols});
    t.fillUniform(rng);
    if (sparsity > 0.0)
        pruneFiltersWithJitter(t, sparsity, 0.1, rng);
    return t;
}

TEST(SparseController, SpmmBitMatchesReference)
{
    Accelerator acc(HardwareConfig::sigmaLike(64, 32));
    const Tensor a = sparseMatrix(16, 32, 0.7, 1);
    Rng rng(2);
    Tensor b({32, 10});
    b.fillUniform(rng);
    Tensor c({16, 10});
    acc.sparseController().runSpMMDense(a, b, c);
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
}

/**
 * The functional SpMM against the naive reference, byte for byte, for
 * every streaming width 1-17 (each vector tail) and wider strips, with
 * a fully pruned row and one Inf in B.
 */
TEST(SparseController, SpmmMatchesReferenceBytes)
{
    using testing_exact::fillExact;
    using testing_exact::sameBytes;
    Rng rng(73);
    for (index_t n = 1; n <= 60; n = n < 17 ? n + 1 : n + 7) {
        SCOPED_TRACE(testing::Message() << "width " << n);
        Tensor a({9, 24});
        fillExact(a, rng);
        pruneFiltersWithJitter(a, 0.5, 0.1, rng);
        for (index_t j = 0; j < a.dim(1); ++j)
            a.at(4, j) = 0.0f; // fully pruned row
        Tensor b({24, n});
        fillExact(b, rng);
        b.at(n % 24, n / 2) = INFINITY;
        const CsrMatrix csr = CsrMatrix::fromDense(a);
        Accelerator acc(HardwareConfig::sigmaLike(64, 32));
        Tensor c({9, n});
        acc.sparseController().runSpMM(csr, b, c);
        EXPECT_TRUE(sameBytes(c, ref::spmm(csr, b)));
    }
}

TEST(SparseController, DenseInputStillWorks)
{
    Accelerator acc(HardwareConfig::sigmaLike(64, 64));
    const Tensor a = sparseMatrix(8, 16, 0.0, 3);
    Rng rng(4);
    Tensor b({16, 6});
    b.fillUniform(rng);
    Tensor c({8, 6});
    const ControllerResult r =
        acc.sparseController().runSpMMDense(a, b, c);
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
    EXPECT_EQ(r.macs, 8u * 16u * 6u);
}

TEST(SparseController, BitmapFrontDoorMatchesCsr)
{
    const Tensor a = sparseMatrix(12, 24, 0.6, 5);
    Rng rng(6);
    Tensor b({24, 8});
    b.fillUniform(rng);

    Tensor c_csr({12, 8}), c_bm({12, 8});
    cycle_t cycles_csr = 0, cycles_bm = 0;
    {
        Accelerator acc(HardwareConfig::sigmaLike(64, 32));
        cycles_csr = acc.sparseController()
            .runSpMM(CsrMatrix::fromDense(a), b, c_csr).cycles;
    }
    {
        Accelerator acc(HardwareConfig::sigmaLike(64, 32));
        cycles_bm = acc.sparseController()
            .runSpMM(BitmapMatrix::fromDense(a), b, c_bm).cycles;
    }
    EXPECT_TRUE(c_csr.equals(c_bm));
    EXPECT_EQ(cycles_csr, cycles_bm);
}

TEST(SparseController, SparserMatrixRunsFaster)
{
    Rng rng(7);
    Tensor b({64, 32});
    b.fillUniform(rng);

    auto run = [&](double sparsity) {
        Accelerator acc(HardwareConfig::sigmaLike(128, 64));
        const Tensor a = sparseMatrix(64, 64, sparsity, 8);
        Tensor c({64, 32});
        return acc.sparseController().runSpMMDense(a, b, c).cycles;
    };

    const cycle_t dense = run(0.0);
    const cycle_t half = run(0.5);
    const cycle_t ninety = run(0.9);
    EXPECT_GT(dense, half);
    EXPECT_GT(half, ninety);
}

TEST(SparseController, ZeroDistributionAffectsTiming)
{
    // Same aggregate nnz, different per-row distributions -> different
    // cycle counts: the data dependence Fig 1c says analytical models
    // cannot capture.
    const index_t m = 32, k = 64, n = 16;
    Rng rng(9);
    Tensor b({k, n});
    b.fillUniform(rng);

    // Uniform: every row 16 nnz. Skewed: the first half of the rows
    // hold 28, the second half 4 — the same aggregate nnz.
    Tensor uniform({m, k}), skewed({m, k});
    for (index_t r = 0; r < m; ++r) {
        for (index_t j = 0; j < 16; ++j)
            uniform.at(r, (r * 7 + j * 3) % k) = 1.0f + 0.01f *
                static_cast<float>(j);
        const index_t nnz = r < m / 2 ? 28 : 4;
        for (index_t j = 0; j < nnz; ++j)
            skewed.at(r, (r * 5 + j * 2) % k) = 1.0f;
    }
    ASSERT_EQ(uniform.nnz(), skewed.nnz());

    cycle_t cyc_uniform = 0, cyc_skewed = 0;
    {
        Accelerator acc(HardwareConfig::sigmaLike(64, 32));
        Tensor c({m, n});
        cyc_uniform =
            acc.sparseController().runSpMMDense(uniform, b, c).cycles;
    }
    {
        Accelerator acc(HardwareConfig::sigmaLike(64, 32));
        Tensor c({m, n});
        cyc_skewed =
            acc.sparseController().runSpMMDense(skewed, b, c).cycles;
    }
    EXPECT_NE(cyc_uniform, cyc_skewed);
}

TEST(SparseController, FullyPrunedRowsEmitZeros)
{
    Accelerator acc(HardwareConfig::sigmaLike(64, 32));
    Tensor a({4, 8});
    a.at(0, 1) = 2.0f;
    a.at(2, 3) = 3.0f; // rows 1 and 3 are all zero
    Rng rng(10);
    Tensor b({8, 5});
    b.fillUniform(rng);
    Tensor c({4, 5});
    acc.sparseController().runSpMMDense(a, b, c);
    for (index_t j = 0; j < 5; ++j) {
        EXPECT_EQ(c.at(1, j), 0.0f);
        EXPECT_EQ(c.at(3, j), 0.0f);
    }
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
}

TEST(SparseController, OversizedRowFoldsAcrossRounds)
{
    Accelerator acc(HardwareConfig::sigmaLike(64, 32));
    // One dense row of 128 nnz on a 64-MS array: two folded chunks.
    const Tensor a = sparseMatrix(1, 128, 0.0, 11);
    Rng rng(12);
    Tensor b({128, 4});
    b.fillUniform(rng);
    Tensor c({1, 4});
    acc.sparseController().runSpMMDense(a, b, c);
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
    EXPECT_GE(acc.sparseController().lastRounds().size(), 2u);
}

TEST(SparseController, SkipZeroActivationsSavesWork)
{
    const Tensor a = sparseMatrix(16, 32, 0.5, 13);
    Rng rng(14);
    Tensor b({32, 12});
    b.fillUniform(rng);
    pruneRandom(b, 0.5, rng);

    Accelerator acc(HardwareConfig::sigmaLike(64, 32));
    Tensor c({16, 12});
    const ControllerResult r = acc.sparseController().runSpMMDense(
        a, b, c, SchedulingPolicy::None, /*skip_zero=*/true);
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
    EXPECT_GT(r.skipped_macs, 0u);
}

TEST(SparseController, SchedulingPreservesFunctionalResults)
{
    const Tensor a = sparseMatrix(32, 48, 0.8, 15);
    Rng rng(16);
    Tensor b({48, 9});
    b.fillUniform(rng);
    const Tensor expect = ref::gemm(a, b);

    for (const auto policy :
         {SchedulingPolicy::None, SchedulingPolicy::Random,
          SchedulingPolicy::LargestFirst}) {
        Accelerator acc(HardwareConfig::sigmaLike(64, 32));
        Tensor c({32, 9});
        acc.sparseController().runSpMMDense(a, b, c, policy);
        EXPECT_TRUE(c.equals(expect))
            << "policy " << schedulingPolicyName(policy);
    }
}

TEST(SparseController, LffNeverSlowerThanNaturalOrder)
{
    const Tensor a = sparseMatrix(64, 64, 0.85, 17);
    Rng rng(18);
    Tensor b({64, 20});
    b.fillUniform(rng);

    auto run = [&](SchedulingPolicy p) {
        Accelerator acc(HardwareConfig::sigmaLike(64, 32));
        Tensor c({64, 20});
        return acc.sparseController().runSpMMDense(a, b, c, p).cycles;
    };
    EXPECT_LE(run(SchedulingPolicy::LargestFirst),
              run(SchedulingPolicy::None));
}

TEST(SparseController, MismatchedShapesAreFatal)
{
    Accelerator acc(HardwareConfig::sigmaLike(64, 32));
    const Tensor a = sparseMatrix(4, 8, 0.0, 19);
    Tensor b({9, 4});
    Tensor c({4, 4});
    EXPECT_THROW(acc.sparseController().runSpMMDense(a, b, c),
                 FatalError);
}

} // namespace
} // namespace stonne
