#include "network/systolic.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/watchdog.hpp"

namespace stonne {

namespace {

/**
 * Edge PEs of [0, len) injecting in cycle t of a k-deep wavefront: edge
 * PE p injects its k operands in cycles [p, p + k).
 */
index_t
edgeInjections(index_t t, index_t len, index_t k)
{
    const index_t lo = std::max<index_t>(0, t - k + 1);
    const index_t hi = std::min(len - 1, t);
    return hi >= lo ? hi - lo + 1 : 0;
}

/**
 * One PE row of a tile: out[j] = sum over kk of a_row[kk] * b[kk][j],
 * each output accumulated in ascending kk from 0.0f, the order its PE
 * fires the products in. Fully unrolled fixed-width column blocks keep
 * the accumulators in registers and let the compiler vectorize across j
 * without changing any output's summation order.
 */
void
dotRow(const float *a_row, const float *b, index_t ldb, index_t k,
       index_t nt, float *out)
{
    constexpr index_t kBlock = 16;
    index_t j0 = 0;
    for (; j0 + kBlock <= nt; j0 += kBlock) {
        float acc[kBlock] = {};
        for (index_t kk = 0; kk < k; ++kk) {
            const float av = a_row[kk];
            const float *brow = b + kk * ldb + j0;
#pragma GCC unroll 16
            for (index_t j = 0; j < kBlock; ++j)
                acc[j] += av * brow[j];
        }
        std::copy(acc, acc + kBlock, out + j0);
    }
    for (index_t j = j0; j < nt; ++j) {
        float acc = 0.0f;
        for (index_t kk = 0; kk < k; ++kk)
            acc += a_row[kk] * b[kk * ldb + j];
        out[j] = acc;
    }
}

} // namespace

SystolicArray::SystolicArray(index_t rows, index_t cols,
                             PointToPointNetwork &dn, MultiplierArray &mn,
                             LinearReductionNetwork &rn, GlobalBuffer &gb,
                             Watchdog *watchdog)
    : rows_(rows), cols_(cols), dn_(dn), mn_(mn), rn_(rn), gb_(gb),
      wd_(watchdog)
{
    fatalIf(rows <= 0 || cols <= 0, "systolic array needs positive dims");
    fatalIf(rows * cols != dn.msSize(),
            "systolic array size ", rows * cols,
            " does not match the DN endpoint count ", dn.msSize());
    fatalIf(!mn.hasForwardingLinks(),
            "a systolic array needs the linear MN's forwarding links");
}

cycle_t
SystolicArray::runTile(const Tensor &a, const Tensor &b, Tensor &c,
                       index_t m0, index_t n0, index_t mt, index_t nt)
{
    const index_t k = a.dim(1);

    // Compute wavefront: the last product fires at PE (mt-1, nt-1) in
    // cycle (k - 1) + (mt - 1) + (nt - 1).
    const cycle_t compute_cycles =
        static_cast<cycle_t>(k + mt + nt - 2);

    // West-edge row i injects A(m0 + i, kk) in cycle i + kk and
    // north-edge column j injects B(kk, n0 + j) in cycle j + kk; both
    // edges peak together in cycle k - 1.
    const index_t peak = std::min(mt, k) + std::min(nt, k);
    panicIf(peak > gb_.readBandwidth(), "systolic edge injection of ",
            peak, " operands a cycle beyond '", gb_.name(),
            "' read bandwidth (", gb_.readBandwidth(), " reads/cycle)");
    panicIf(peak > dn_.bandwidth(), "systolic edge injection rejected");

    if (compute_cycles > 0) {
        // Every cycle but the last in bulk, the last one exactly, so
        // the per-cycle GB/DN budgets end where stepping leaves them.
        const cycle_t bulk = compute_cycles - 1;
        const auto last = static_cast<index_t>(bulk);
        const index_t a_last = edgeInjections(last, mt, k);
        const index_t b_last = edgeInjections(last, nt, k);
        gb_.bulkAdvance(bulk, (mt + nt) * k - a_last - b_last, 0);
        dn_.bulkAdvance(bulk, mt * k - a_last, 1, PackageKind::Input);
        dn_.bulkAdvance(bulk, nt * k - b_last, 1, PackageKind::Weight);

        gb_.nextCycle();
        dn_.cycle();
        panicIf(gb_.readBulk(a_last + b_last) != a_last + b_last,
                "systolic edge read rejected");
        panicIf(dn_.injectBulk(a_last, 1, PackageKind::Input) != a_last ||
                    dn_.injectBulk(b_last, 1, PackageKind::Weight) !=
                        b_last,
                "systolic edge injection rejected");
    }

    // PE (i, j) fires in cycles [i + j, i + j + k), so with k > 0 every
    // compute cycle is busy; each PE off the west (north) edge takes k
    // operands from its west (north) neighbour.
    const index_t macs = mt * nt * k;
    mn_.bulkFire(k > 0 ? compute_cycles : 0, static_cast<count_t>(macs),
                 static_cast<count_t>(k * (mt * (nt - 1) + (mt - 1) * nt)));
    rn_.accumulate(macs);

    const index_t ldc = c.dim(1);
    for (index_t i = 0; i < mt; ++i)
        dotRow(a.data() + (m0 + i) * k, b.data() + n0, b.dim(1), k, nt,
               c.data() + (m0 + i) * ldc + n0);

    // Drain the output-stationary accumulators through the linear
    // reduction chain into the GB (covered by the per-tile overhead).
    for (index_t e = 0; e < mt * nt; ++e) {
        if (!gb_.canWrite())
            gb_.nextCycle();
        gb_.write();
    }

    return compute_cycles + kTileOverhead;
}

SystolicResult
SystolicArray::run(const Tensor &a, const Tensor &b, Tensor &c)
{
    fatalIf(a.rank() != 2 || b.rank() != 2 || c.rank() != 2,
            "systolic GEMM expects rank-2 operands");
    const index_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    fatalIf(b.dim(0) != k, "systolic GEMM inner dimension mismatch");
    fatalIf(c.dim(0) != m || c.dim(1) != n,
            "systolic GEMM output shape mismatch");

    SystolicResult res;
    for (index_t m0 = 0; m0 < m; m0 += rows_) {
        const index_t mt = std::min(rows_, m - m0);
        for (index_t n0 = 0; n0 < n; n0 += cols_) {
            const index_t nt = std::min(cols_, n - n0);
            const cycle_t cycles = runTile(a, b, c, m0, n0, mt, nt);
            const auto macs = static_cast<count_t>(mt * nt * k);
            res.cycles += cycles;
            res.macs += macs;
            ++res.tiles;
            // Progress: the tile's products and drained outputs.
            if (wd_ != nullptr)
                wd_->bulkTick(cycles,
                              macs + static_cast<count_t>(mt * nt));
        }
    }
    return res;
}

} // namespace stonne
