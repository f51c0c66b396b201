/**
 * @file
 * Unit tests for the output-stationary systolic array: functional
 * exactness against the reference GEMM, the cycle model the Table V TPU
 * validation relies on, and bit-identical parity of the closed-form tile
 * with the PE-by-PE oracle in systolic_oracle.hpp.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "checkpoint/archive.hpp"
#include "common/logging.hpp"
#include "common/watchdog.hpp"
#include "mem/global_buffer.hpp"
#include "network/systolic.hpp"
#include "systolic_oracle.hpp"
#include "tensor/reference.hpp"

namespace stonne {
namespace {

struct Rig {
    StatsRegistry stats;
    GlobalBuffer gb;
    PointToPointNetwork dn;
    MultiplierArray mn;
    LinearReductionNetwork rn;
    SystolicArray array;

    Rig(index_t rows, index_t cols)
        : Rig(rows, cols, rows * cols, rows * cols)
    {
    }

    Rig(index_t rows, index_t cols, index_t gb_reads, index_t gb_writes)
        : gb(108, gb_reads, gb_writes, 1, stats),
          dn(rows * cols, rows * cols, stats),
          mn(rows * cols, MnType::Linear, stats),
          rn(rows * cols, stats),
          array(rows, cols, dn, mn, rn, gb)
    {
    }
};

TEST(Systolic, SingleTileGemmIsExact)
{
    Rig rig(4, 4);
    Rng rng(1);
    Tensor a({4, 6}), b({6, 4});
    a.fillUniform(rng);
    b.fillUniform(rng);
    Tensor c({4, 4});
    rig.array.run(a, b, c);
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
}

TEST(Systolic, MultiTileGemmIsExact)
{
    Rig rig(4, 4);
    Rng rng(2);
    Tensor a({10, 7}), b({7, 9});
    a.fillUniform(rng);
    b.fillUniform(rng);
    Tensor c({10, 9});
    const SystolicResult r = rig.array.run(a, b, c);
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
    EXPECT_EQ(r.macs, 10u * 7u * 9u);
    EXPECT_EQ(r.tiles, 3 * 3);
}

TEST(Systolic, TileCycleFormulaMatchesRtlValidation)
{
    // Table V TPU rows: per full tile the RTL costs K + ar + ac + 2.
    Rig rig(16, 16);
    Rng rng(3);

    auto run = [&](index_t m, index_t n, index_t k) {
        Tensor a({m, k}), b({k, n});
        a.fillUniform(rng);
        b.fillUniform(rng);
        Tensor c({m, n});
        return rig.array.run(a, b, c).cycles;
    };

    EXPECT_EQ(run(16, 16, 32), 66u);   // TPU-1: RTL 66
    EXPECT_EQ(run(16, 16, 16), 50u);   // TPU-2: RTL 50
    EXPECT_EQ(run(32, 32, 16), 200u);  // TPU-3: RTL 200
    EXPECT_EQ(run(64, 64, 32), 1056u); // TPU-4: RTL 1056
}

TEST(Systolic, PartialEdgeTilesCostLess)
{
    Rig rig(8, 8);
    Rng rng(4);
    Tensor a({3, 5}), b({5, 2});
    a.fillUniform(rng);
    b.fillUniform(rng);
    Tensor c({3, 2});
    const SystolicResult r = rig.array.run(a, b, c);
    // One partial tile: K + mt + nt - 2 + overhead = 5 + 3 + 2 - 2 + 4.
    EXPECT_EQ(r.cycles, 12u);
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
}

TEST(Systolic, ActivityCountersMatchWork)
{
    Rig rig(4, 4);
    Rng rng(5);
    Tensor a({4, 8}), b({8, 4});
    a.fillUniform(rng);
    b.fillUniform(rng);
    Tensor c({4, 4});
    rig.array.run(a, b, c);
    EXPECT_EQ(rig.mn.multOps(), 4u * 8u * 4u);
    EXPECT_EQ(rig.stats.value("rn.adder_ops"), 4u * 8u * 4u);
    // Every operand element is injected once per tile edge.
    EXPECT_EQ(rig.stats.value("dn.packages"), 2u * 4u * 8u);
    EXPECT_EQ(rig.stats.value("dn.link_hops"), 2u * 4u * 8u);
    EXPECT_EQ(rig.stats.value("gb.reads"), 2u * 4u * 8u);
    EXPECT_EQ(rig.stats.value("gb.writes"), 16u);
    // Each PE off the west (north) edge takes K operands from its
    // neighbour: K * (mt * (nt - 1) + (mt - 1) * nt) hops.
    EXPECT_EQ(rig.mn.forwardOps(), 8u * (4u * 3u + 3u * 4u));
    // Some PE fires in every wavefront cycle: K + mt + nt - 2.
    EXPECT_EQ(rig.stats.value("mn.busy_cycles"), 8u + 4u + 4u - 2u);
}

/** One parity shape: the array, its GB bandwidths and the GEMM dims. */
struct ParityCase {
    index_t rows, cols, gb_reads, gb_writes;
    index_t m, k, n;
};

std::vector<std::uint8_t>
savedBytes(const Checkpointable &unit)
{
    ArchiveWriter w;
    unit.saveState(w);
    return w.payload();
}

/** Operands with signed zeros, denormals and wide magnitudes, so any
 *  change of summation order or rounding shows in the output bits. */
Tensor
parityOperand(index_t rows, index_t cols, Rng &rng)
{
    Tensor t({rows, cols});
    t.fillUniform(rng);
    for (index_t e = 0; e < t.size(); ++e) {
        const std::int64_t pick = rng.integer(0, 7);
        if (pick == 0)
            t.at(e) = -0.0f;
        else if (pick == 1)
            t.at(e) *= 8 * std::numeric_limits<float>::denorm_min();
        else if (pick == 2)
            t.at(e) *= 1e6f;
    }
    return t;
}

/** Run the closed-form array and the oracle on twin rigs; compare all. */
void
expectParity(const ParityCase &pc, Rng &rng)
{
    SCOPED_TRACE(testing::Message()
                 << pc.rows << "x" << pc.cols << " array, gb " << pc.gb_reads
                 << "/" << pc.gb_writes << ", M=" << pc.m << " K=" << pc.k
                 << " N=" << pc.n);
    Rig fast(pc.rows, pc.cols, pc.gb_reads, pc.gb_writes);
    Rig slow(pc.rows, pc.cols, pc.gb_reads, pc.gb_writes);
    Watchdog fast_wd(1000), slow_wd(1000);
    SystolicArray fast_array(pc.rows, pc.cols, fast.dn, fast.mn, fast.rn,
                             fast.gb, &fast_wd);

    // Two GEMMs back to back: the second starts from the per-cycle
    // budget state the first one left behind.
    for (int rep = 0; rep < 2; ++rep) {
        const Tensor a = parityOperand(pc.m, pc.k, rng);
        const Tensor b = parityOperand(pc.k, pc.n, rng);
        Tensor c_fast({pc.m, pc.n}), c_slow({pc.m, pc.n});
        const SystolicResult rf = fast_array.run(a, b, c_fast);
        const SystolicResult rs =
            steppedSystolicGemm(pc.rows, pc.cols, slow.dn, slow.mn, slow.rn,
                                slow.gb, a, b, c_slow, &slow_wd);

        EXPECT_EQ(rf.cycles, rs.cycles);
        EXPECT_EQ(rf.tiles, rs.tiles);
        EXPECT_EQ(rf.macs, rs.macs);
        ASSERT_EQ(fast.stats.counters().size(), slow.stats.counters().size());
        for (std::size_t i = 0; i < fast.stats.counters().size(); ++i) {
            const StatCounter &f = fast.stats.counters()[i];
            const StatCounter &s = slow.stats.counters()[i];
            EXPECT_EQ(f.name, s.name);
            EXPECT_EQ(f.value, s.value) << f.name;
        }
        EXPECT_EQ(savedBytes(fast.gb), savedBytes(slow.gb));
        EXPECT_EQ(savedBytes(fast.dn), savedBytes(slow.dn));
        EXPECT_EQ(savedBytes(fast_wd), savedBytes(slow_wd));
        EXPECT_EQ(std::memcmp(c_fast.data(), c_slow.data(),
                              static_cast<std::size_t>(c_fast.size()) *
                                  sizeof(float)),
                  0);
    }
}

TEST(Systolic, ClosedFormTileMatchesSteppedOracle)
{
    Rng rng(6);
    const ParityCase fixed[] = {
        {4, 4, 16, 16, 1, 1, 1},       // k = mt = nt = 1: one cycle
        {4, 4, 16, 16, 4, 1, 4},       // k = 1, full tile
        {4, 4, 8, 3, 10, 7, 9},        // partial edge tiles, slow drain
        {8, 8, 16, 16, 3, 5, 2},       // one partial tile
        {2, 8, 10, 16, 5, 9, 19},      // non-square, edge at full bandwidth
        {8, 2, 10, 1, 19, 3, 5},       // non-square, one write a cycle
        {3, 5, 15, 15, 7, 11, 13},     // non-power-of-two array
        {16, 16, 32, 256, 33, 40, 17}, // the TPU-256 array shape
        {4, 4, 16, 16, 6, 2, 6},       // k < mt, nt: edge peak below rows
    };
    for (const ParityCase &pc : fixed)
        expectParity(pc, rng);

    for (int trial = 0; trial < 24; ++trial) {
        ParityCase pc;
        pc.rows = rng.integer(2, 8);
        pc.cols = rng.integer(2, 8);
        pc.gb_reads = rng.integer(pc.rows + pc.cols, pc.rows * pc.cols + 4);
        pc.gb_writes = rng.integer(1, pc.rows * pc.cols);
        pc.m = rng.integer(1, 3 * pc.rows);
        pc.k = rng.integer(1, 24);
        pc.n = rng.integer(1, 3 * pc.cols);
        expectParity(pc, rng);
    }
}

TEST(Systolic, MismatchedShapesAreFatal)
{
    Rig rig(4, 4);
    Tensor a({4, 5}), b({6, 4}), c({4, 4});
    EXPECT_THROW(rig.array.run(a, b, c), FatalError);
}

TEST(Systolic, ArraySizeMustMatchFabric)
{
    StatsRegistry stats;
    GlobalBuffer gb(108, 16, 16, 1, stats);
    PointToPointNetwork dn(16, 16, stats);
    MultiplierArray mn(16, MnType::Linear, stats);
    LinearReductionNetwork rn(16, stats);
    EXPECT_THROW(SystolicArray(8, 8, dn, mn, rn, gb), FatalError);
}

} // namespace
} // namespace stonne
