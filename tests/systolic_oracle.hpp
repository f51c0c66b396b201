/**
 * @file
 * PE-by-PE reference simulation of the output-stationary systolic
 * array: the oracle SystolicArray::run's closed-form tile is checked
 * against. Every cycle it steps every PE's operand registers, injects
 * the skewed edge operands one GB read and one DN package at a time,
 * and accumulates each product in place, exactly as the array's
 * wavefront fires them.
 */

#ifndef STONNE_TESTS_SYSTOLIC_ORACLE_HPP
#define STONNE_TESTS_SYSTOLIC_ORACLE_HPP

#include <algorithm>
#include <vector>

#include "common/logging.hpp"
#include "common/watchdog.hpp"
#include "network/systolic.hpp"

namespace stonne {

/**
 * One (mt x nt) output tile at (m0, n0), stepped cycle by cycle; adds
 * the products it fires to `macs`.
 */
inline cycle_t
steppedSystolicTile(index_t cols, PointToPointNetwork &dn,
                    MultiplierArray &mn, LinearReductionNetwork &rn,
                    GlobalBuffer &gb, const Tensor &a, const Tensor &b,
                    Tensor &c, index_t m0, index_t n0, index_t mt,
                    index_t nt, count_t &macs)
{
    const index_t k = a.dim(1);
    const auto idx = [&](index_t i, index_t j) {
        return static_cast<std::size_t>(i * nt + j);
    };

    std::vector<float> acc(static_cast<std::size_t>(mt * nt), 0.0f);
    std::vector<float> a_reg(acc.size(), 0.0f), b_reg(acc.size(), 0.0f);
    std::vector<char> a_val(acc.size(), 0), b_val(acc.size(), 0);
    std::vector<float> a_nxt(acc.size()), b_nxt(acc.size());
    std::vector<char> a_vnx(acc.size()), b_vnx(acc.size());

    // Compute wavefront: the last product fires at PE (mt-1, nt-1) in
    // cycle (k - 1) + (mt - 1) + (nt - 1).
    const cycle_t compute_cycles = static_cast<cycle_t>(k + mt + nt - 2);

    for (cycle_t t = 0; t < compute_cycles; ++t) {
        gb.nextCycle();
        dn.cycle();

        index_t fired = 0, forwards = 0;
        for (index_t i = 0; i < mt; ++i) {
            for (index_t j = 0; j < nt; ++j) {
                // Operand arriving from the west (or the edge injector).
                float av = 0.0f;
                char avalid = 0;
                if (j == 0) {
                    const auto tt = static_cast<index_t>(t);
                    if (tt >= i && tt < i + k) {
                        av = a.at(m0 + i, tt - i);
                        avalid = 1;
                        gb.read();
                        DataPackage pkg;
                        pkg.value = av;
                        pkg.dest_lo = i * cols;
                        pkg.dest_hi = i * cols + 1;
                        pkg.kind = PackageKind::Input;
                        panicIf(!dn.inject(pkg),
                                "systolic edge injection rejected");
                    }
                } else {
                    av = a_reg[idx(i, j - 1)];
                    avalid = a_val[idx(i, j - 1)];
                    if (avalid)
                        ++forwards;
                }
                // Operand arriving from the north (or the edge injector).
                float bv = 0.0f;
                char bvalid = 0;
                if (i == 0) {
                    const auto tt = static_cast<index_t>(t);
                    if (tt >= j && tt < j + k) {
                        bv = b.at(tt - j, n0 + j);
                        bvalid = 1;
                        gb.read();
                        DataPackage pkg;
                        pkg.value = bv;
                        pkg.dest_lo = j;
                        pkg.dest_hi = j + 1;
                        pkg.kind = PackageKind::Weight;
                        panicIf(!dn.inject(pkg),
                                "systolic edge injection rejected");
                    }
                } else {
                    bv = b_reg[idx(i - 1, j)];
                    bvalid = b_val[idx(i - 1, j)];
                    if (bvalid)
                        ++forwards;
                }
                a_nxt[idx(i, j)] = av;
                a_vnx[idx(i, j)] = avalid;
                b_nxt[idx(i, j)] = bv;
                b_vnx[idx(i, j)] = bvalid;
                if (avalid && bvalid) {
                    acc[idx(i, j)] += av * bv;
                    ++fired;
                }
            }
        }
        a_reg.swap(a_nxt);
        a_val.swap(a_vnx);
        b_reg.swap(b_nxt);
        b_val.swap(b_vnx);
        mn.fireMultipliers(fired);
        mn.forwardOperands(forwards);
        rn.accumulate(fired);
        macs += static_cast<count_t>(fired);
    }

    // Drain the output-stationary accumulators through the linear
    // reduction chain into the GB (covered by the per-tile overhead).
    for (index_t i = 0; i < mt; ++i) {
        for (index_t j = 0; j < nt; ++j) {
            if (!gb.canWrite())
                gb.nextCycle();
            gb.write();
            c.at(m0 + i, n0 + j) = acc[idx(i, j)];
        }
    }

    return compute_cycles + SystolicArray::kTileOverhead;
}

/**
 * C = A * B on a (rows x cols) array, every tile stepped PE by PE, with
 * the same tiling, results and per-tile watchdog ticks as
 * SystolicArray::run.
 */
inline SystolicResult
steppedSystolicGemm(index_t rows, index_t cols, PointToPointNetwork &dn,
                    MultiplierArray &mn, LinearReductionNetwork &rn,
                    GlobalBuffer &gb, const Tensor &a, const Tensor &b,
                    Tensor &c, Watchdog *wd = nullptr)
{
    const index_t m = a.dim(0), n = b.dim(1);
    SystolicResult res;
    for (index_t m0 = 0; m0 < m; m0 += rows) {
        const index_t mt = std::min(rows, m - m0);
        for (index_t n0 = 0; n0 < n; n0 += cols) {
            const index_t nt = std::min(cols, n - n0);
            count_t macs = 0;
            const cycle_t cycles = steppedSystolicTile(
                cols, dn, mn, rn, gb, a, b, c, m0, n0, mt, nt, macs);
            res.cycles += cycles;
            res.macs += macs;
            ++res.tiles;
            if (wd != nullptr)
                wd->bulkTick(cycles, macs + static_cast<count_t>(mt * nt));
        }
    }
    return res;
}

} // namespace stonne

#endif // STONNE_TESTS_SYSTOLIC_ORACLE_HPP
