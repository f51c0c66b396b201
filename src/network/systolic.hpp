/**
 * @file
 * Output-stationary systolic array — the TPU-like rigid substrate.
 *
 * Operands enter skewed along the west (matrix A rows) and north
 * (matrix B columns) edges through the point-to-point distribution
 * links, hop between neighbouring PEs on the linear multiplier network's
 * forwarding links, and accumulate in place (output-stationary dataflow,
 * like ShiDianNao and the OS-configured TPU the paper validates
 * against). Results drain through the linear reduction chain.
 *
 * Per tile of (m_t x n_t) outputs the compute wavefront takes
 * K + m_t + n_t - 2 cycles; a constant 4-cycle injection/drain register
 * overhead per tile reproduces the RTL behaviour of the SCALE-Sim
 * validation array (Table V: per-tile cost K + ar + ac + 2).
 *
 * The wavefront is simulated in closed form: PE (i, j) fires operand
 * pair kk in cycle i + j + kk, so every per-cycle side effect (edge
 * injections, products, neighbour hops) is a count with a formula, and
 * each output is the kk-ordered dot product the stepped wavefront
 * accumulates. All cycles but the last are accounted in bulk; the last
 * runs through the per-cycle GB/DN interfaces, so their per-cycle
 * budget state ends exactly where a PE-by-PE simulation leaves it. The
 * PE-by-PE simulation is kept as the test oracle.
 */

#ifndef STONNE_NETWORK_SYSTOLIC_HPP
#define STONNE_NETWORK_SYSTOLIC_HPP

#include "mem/global_buffer.hpp"
#include "network/dn_popn.hpp"
#include "network/mn_array.hpp"
#include "network/rn_linear.hpp"
#include "tensor/tensor.hpp"

namespace stonne {

class Watchdog;

/** Result of one systolic GEMM execution. */
struct SystolicResult {
    cycle_t cycles = 0;
    count_t macs = 0;
    index_t tiles = 0;
};

/** Output-stationary systolic array of rows x cols PEs. */
class SystolicArray
{
  public:
    /**
     * @param rows PE rows (A-row direction)
     * @param cols PE columns (B-column direction)
     * @param dn point-to-point injection links (stats)
     * @param mn multiplier array (stats)
     * @param rn linear reduction chain (stats)
     * @param gb global buffer (bandwidth + access accounting)
     * @param watchdog optional progress watchdog, ticked once per tile
     *        so cycle and wall-clock budgets hold inside the array
     */
    SystolicArray(index_t rows, index_t cols, PointToPointNetwork &dn,
                  MultiplierArray &mn, LinearReductionNetwork &rn,
                  GlobalBuffer &gb, Watchdog *watchdog = nullptr);

    /**
     * Run C = A * B tile by tile.
     * @param a (M x K); @param b (K x N); @param c out, (M x N)
     */
    SystolicResult run(const Tensor &a, const Tensor &b, Tensor &c);

    index_t rows() const { return rows_; }
    index_t cols() const { return cols_; }

    /** Register-stage overhead added per tile (injection + drain). */
    static constexpr index_t kTileOverhead = 4;

  private:
    cycle_t runTile(const Tensor &a, const Tensor &b, Tensor &c,
                    index_t m0, index_t n0, index_t mt, index_t nt);

    index_t rows_;
    index_t cols_;
    PointToPointNetwork &dn_;
    MultiplierArray &mn_;
    LinearReductionNetwork &rn_;
    GlobalBuffer &gb_;
    Watchdog *wd_;
};

} // namespace stonne

#endif // STONNE_NETWORK_SYSTOLIC_HPP
