#include "tensor/kernel.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/logging.hpp"

namespace stonne::kernel {

namespace {

// Four floats in one SSE2-width register (GCC/Clang vector extension).
// Element-wise * and + are single-rounding multiplies and adds, lane
// for lane the same operations as the scalar reference.
using v4f = float __attribute__((vector_size(16)));

/** Positions per vector, and filters per convolution block. */
constexpr int kLanes = 4;

/** Convolution blocks (of up to 8 positions) per cached panel. */
constexpr std::size_t kPanel = 8;

inline v4f
load4(const float *p)
{
    v4f v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
store4(float *p, v4f v)
{
    std::memcpy(p, &v, sizeof v);
}

inline v4f
splat(float s)
{
    return v4f{s, s, s, s};
}

/**
 * Four output positions of one convolution plane. `in` is each
 * position's window origin in its input plane ((x, y) row-major,
 * negative inside the padding) and `out` its offset in the output
 * plane. Lanes past `count` repeat the last real position: they
 * compute a duplicate that is never stored.
 */
struct Quad {
    index_t in[kLanes];
    index_t out[kLanes];
    int count;
};

/**
 * One or two quads whose positions share the same in-bounds tap
 * rectangle [r_lo, r_hi) x [s_lo, s_hi), so one loop nest serves all
 * of them with no per-tap bounds test.
 */
struct Block {
    index_t r_lo, r_hi, s_lo, s_hi;
    std::size_t quad; //!< index of the first quad
    int nq;           //!< 1 or 2 quads
    bool unit; //!< in and out ascend by one across each quad's lanes
};

struct Geometry {
    index_t cg;    //!< channels per group
    index_t R, S;  //!< filter extent
    index_t Y;     //!< input row length
    index_t plane; //!< input channel stride (X * Y)
};

/**
 * One term of every accumulator: tap `t` of the four filters (each
 * weight broadcast once, shared by all positions) times the input
 * under that tap for each position (each vector loaded once, shared by
 * all filters). `tap` is the tap's offset from a window origin; each
 * position adds its own origin.
 */
template <int NQ, bool Unit>
__attribute__((always_inline)) inline void
mac(v4f (&acc)[kLanes][NQ], const Quad *q, const float *in, index_t tap,
    const float *const *wrow, index_t t)
{
    v4f x[NQ];
#pragma GCC unroll 2
    for (int v = 0; v < NQ; ++v) {
        const index_t *o = q[v].in;
        if constexpr (Unit)
            x[v] = load4(in + (o[0] + tap));
        else
            x[v] = v4f{in[o[0] + tap], in[o[1] + tap], in[o[2] + tap],
                       in[o[3] + tap]};
    }
#pragma GCC unroll 4
    for (int f = 0; f < kLanes; ++f) {
        const v4f w = splat(wrow[f][t]);
#pragma GCC unroll 2
        for (int v = 0; v < NQ; ++v) {
            const v4f prod = w * x[v];
            acc[f][v] += prod;
        }
    }
}

/**
 * Reduce kLanes filters x (4 * NQ) positions and store them. Every
 * lane walks its own in-bounds (c, r, s) taps in canonical order from
 * 0.0f, one multiply then one add per term, and adds the bias last.
 * A pointwise (1x1) filter's taps are just its channels, walked by
 * one loop.
 *
 * @param wrow weight row (c, r, s order) of each filter
 * @param out output plane of each filter (only the first `filters`
 *            are written)
 */
template <int NQ, bool Unit>
void
convBlock(const Geometry &g, const Block &b, const Quad *q, const float *in,
          const float *const *wrow, float *const *out, const float *bias,
          int filters)
{
    v4f acc[kLanes][NQ];
#pragma GCC unroll 4
    for (int f = 0; f < kLanes; ++f)
#pragma GCC unroll 2
        for (int v = 0; v < NQ; ++v)
            acc[f][v] = v4f{};
    if (g.R * g.S == 1) {
        // Inside the padding of a padded 1x1 layer no tap is in bounds.
        if (b.r_lo < b.r_hi && b.s_lo < b.s_hi)
            for (index_t c = 0; c < g.cg; ++c)
                mac<NQ, Unit>(acc, q, in, c * g.plane, wrow, c);
    } else {
        for (index_t c = 0; c < g.cg; ++c)
            for (index_t r = b.r_lo; r < b.r_hi; ++r)
                for (index_t s = b.s_lo; s < b.s_hi; ++s)
                    mac<NQ, Unit>(acc, q, in, c * g.plane + r * g.Y + s,
                                  wrow, (c * g.R + r) * g.S + s);
    }
    for (int f = 0; f < filters; ++f) {
        const v4f bf = splat(bias[f]);
        for (int v = 0; v < NQ; ++v) {
            const v4f o = acc[f][v] + bf;
            if constexpr (Unit) {
                store4(out[f] + q[v].out[0], o);
            } else {
                for (int l = 0; l < q[v].count; ++l)
                    out[f][q[v].out[l]] = o[l];
            }
        }
    }
}

/** Runs of equal tap bounds along one output axis. */
struct Run {
    index_t begin, end; //!< output coordinates [begin, end)
    index_t lo, hi;     //!< in-bounds taps [lo, hi)
};

std::vector<Run>
boundRuns(index_t outs, index_t extent, index_t taps, index_t stride,
          index_t pad)
{
    std::vector<Run> runs;
    for (index_t o = 0; o < outs; ++o) {
        const index_t base = o * stride - pad;
        const index_t lo = std::max<index_t>(0, -base);
        const index_t hi = std::min(taps, extent - base);
        if (!runs.empty() && runs.back().lo == lo && runs.back().hi == hi)
            runs.back().end = o + 1;
        else
            runs.push_back({o, o + 1, lo, hi});
    }
    return runs;
}

/**
 * Partition one output plane into blocks. Positions with the same tap
 * bounds form a rectangle of (row run) x (column run); it is walked
 * row-major, and every four positions that are contiguous in both the
 * input and the output plane become a unit quad (for 1x1 / pad-0
 * layers this runs straight across output rows). The remaining
 * positions (strided layers, row ends, narrow edge columns) are
 * gathered four at a time. Quads of one kind pair up into blocks.
 */
void
planBlocks(const Conv2dShape &shape, std::vector<Quad> &quads,
           std::vector<Block> &blocks)
{
    const index_t xo = shape.outX();
    const index_t yo = shape.outY();
    const std::vector<Run> rows =
        boundRuns(xo, shape.X, shape.R, shape.stride, shape.padding);
    const std::vector<Run> cols =
        boundRuns(yo, shape.Y, shape.S, shape.stride, shape.padding);

    std::vector<index_t> pin, pout;
    std::vector<std::size_t> unit, rest;
    // Quads over the listed positions (the last one may be short and
    // repeats its last position), paired into blocks.
    auto emit = [&](const Run &rr, const Run &cr,
                    const std::vector<std::size_t> &pos, bool is_unit) {
        const std::size_t first = quads.size();
        for (std::size_t i = 0; i < pos.size(); i += kLanes) {
            Quad qd{};
            qd.count = static_cast<int>(
                std::min<std::size_t>(kLanes, pos.size() - i));
            for (int l = 0; l < kLanes; ++l) {
                const std::size_t p = pos[i + std::min(l, qd.count - 1)];
                qd.in[l] = pin[p];
                qd.out[l] = pout[p];
            }
            quads.push_back(qd);
        }
        for (std::size_t i = first; i < quads.size(); i += 2)
            blocks.push_back({rr.lo, rr.hi, cr.lo, cr.hi, i,
                              i + 1 < quads.size() ? 2 : 1, is_unit});
    };
    for (const Run &rr : rows) {
        for (const Run &cr : cols) {
            pin.clear();
            pout.clear();
            for (index_t ox = rr.begin; ox < rr.end; ++ox) {
                for (index_t oy = cr.begin; oy < cr.end; ++oy) {
                    pin.push_back((ox * shape.stride - shape.padding) *
                                      shape.Y +
                                  oy * shape.stride - shape.padding);
                    pout.push_back(ox * yo + oy);
                }
            }
            unit.clear();
            rest.clear();
            for (std::size_t i = 0; i < pin.size();) {
                bool run = i + kLanes <= pin.size();
                for (int l = 1; run && l < kLanes; ++l)
                    run = pin[i + l] == pin[i] + l &&
                          pout[i + l] == pout[i] + l;
                const std::size_t len = run ? kLanes : 1;
                for (std::size_t l = 0; l < len; ++l)
                    (run ? unit : rest).push_back(i + l);
                i += len;
            }
            emit(rr, cr, unit, true);
            emit(rr, cr, rest, false);
        }
    }
}

/**
 * Rows of C, columns [j0, j0 + 4 * NQ): for each non-zero v of a row
 * (in CSR order), add v * B[col, j0..) into the strip of outputs. Each
 * output still sums its row's terms in canonical order from 0.0f.
 */
template <int NQ>
void
spmmStrip(const CsrMatrix &a, const float *b, index_t n, index_t j0,
          float *c)
{
    const index_t *rp = a.row_ptr.data();
    const index_t *ci = a.col_idx.data();
    const float *val = a.values.data();
    for (index_t r = 0; r < a.rows; ++r) {
        v4f acc[NQ];
#pragma GCC unroll 8
        for (int q = 0; q < NQ; ++q)
            acc[q] = v4f{};
        for (index_t p = rp[r]; p < rp[r + 1]; ++p) {
            const v4f v = splat(val[p]);
            const float *brow = b + (ci[p] * n + j0);
#pragma GCC unroll 8
            for (int q = 0; q < NQ; ++q) {
                const v4f prod = v * load4(brow + q * kLanes);
                acc[q] += prod;
            }
        }
        float *crow = c + (r * n + j0);
        for (int q = 0; q < NQ; ++q)
            store4(crow + q * kLanes, acc[q]);
    }
}

} // namespace

void
conv2d(const Conv2dShape &shape, const Tensor &input, const Tensor &weights,
       const Tensor &bias, Tensor &output)
{
    shape.validate();
    const index_t xo = shape.outX();
    const index_t yo = shape.outY();
    const index_t cg = shape.cPerGroup();
    const index_t kg = shape.kPerGroup();
    const index_t window = cg * shape.R * shape.S;
    fatalIf(input.size() != shape.N * shape.C * shape.X * shape.Y,
            "conv2d input size mismatch");
    fatalIf(weights.size() != shape.K * window,
            "conv2d weight size mismatch");
    fatalIf(!bias.empty() && bias.size() != shape.K,
            "conv2d bias size mismatch");
    fatalIf(output.size() != shape.N * shape.K * xo * yo,
            "conv2d output size mismatch");

    std::vector<Quad> quads;
    std::vector<Block> blocks;
    planBlocks(shape, quads, blocks);

    const Geometry geo{cg, shape.R, shape.S, shape.Y, shape.X * shape.Y};
    const index_t plane_out = xo * yo;
    for (index_t g = 0; g < shape.G; ++g) {
        for (index_t n = 0; n < shape.N; ++n) {
            const float *in =
                input.data() + (n * shape.C + g * cg) * geo.plane;
            // A panel of blocks meets every filter of the group before
            // the next panel starts, so its inputs stay cached while
            // the weights stream past.
            for (std::size_t b0 = 0; b0 < blocks.size(); b0 += kPanel) {
                const std::size_t b1 =
                    std::min(blocks.size(), b0 + kPanel);
                for (index_t k0 = 0; k0 < kg; k0 += kLanes) {
                    const int filters = static_cast<int>(
                        std::min<index_t>(kLanes, kg - k0));
                    // Missing filters of a short block repeat the last
                    // real one, so every lane computes on real operands.
                    const float *wrow[kLanes];
                    float *out[kLanes];
                    float bias_v[kLanes];
                    for (int f = 0; f < kLanes; ++f) {
                        const index_t ko =
                            g * kg + k0 + std::min(f, filters - 1);
                        wrow[f] = weights.data() + ko * window;
                        out[f] = output.data() +
                            (n * shape.K + ko) * plane_out;
                        bias_v[f] = bias.empty() ? 0.0f : bias.data()[ko];
                    }
                    for (std::size_t bi = b0; bi < b1; ++bi) {
                        const Block &b = blocks[bi];
                        const Quad *q = &quads[b.quad];
                        if (b.unit && b.nq == 2)
                            convBlock<2, true>(geo, b, q, in, wrow, out,
                                               bias_v, filters);
                        else if (b.unit)
                            convBlock<1, true>(geo, b, q, in, wrow, out,
                                               bias_v, filters);
                        else if (b.nq == 2)
                            convBlock<2, false>(geo, b, q, in, wrow, out,
                                                bias_v, filters);
                        else
                            convBlock<1, false>(geo, b, q, in, wrow, out,
                                                bias_v, filters);
                    }
                }
            }
        }
    }
}

void
spmm(const CsrMatrix &a, const Tensor &b, Tensor &c)
{
    fatalIf(b.rank() != 2 || b.dim(0) != a.cols,
            "spmm operand B shape mismatch");
    fatalIf(c.rank() != 2 || c.dim(0) != a.rows || c.dim(1) != b.dim(1),
            "spmm output shape mismatch");
    const index_t n = b.dim(1);
    const float *bd = b.data();
    float *cd = c.data();
    index_t j0 = 0;
    for (; j0 + 8 * kLanes <= n; j0 += 8 * kLanes)
        spmmStrip<8>(a, bd, n, j0, cd);
    if (j0 + 4 * kLanes <= n) {
        spmmStrip<4>(a, bd, n, j0, cd);
        j0 += 4 * kLanes;
    }
    if (j0 + 2 * kLanes <= n) {
        spmmStrip<2>(a, bd, n, j0, cd);
        j0 += 2 * kLanes;
    }
    if (j0 + kLanes <= n) {
        spmmStrip<1>(a, bd, n, j0, cd);
        j0 += kLanes;
    }
    // The last n % 4 columns, one scalar chain each.
    for (index_t r = 0; r < a.rows && j0 < n; ++r) {
        for (index_t j = j0; j < n; ++j) {
            float acc = 0.0f;
            for (index_t p = a.row_ptr[static_cast<std::size_t>(r)];
                 p < a.row_ptr[static_cast<std::size_t>(r + 1)]; ++p)
                acc += a.values[static_cast<std::size_t>(p)] *
                       bd[a.col_idx[static_cast<std::size_t>(p)] * n + j];
            cd[r * n + j] = acc;
        }
    }
}

} // namespace stonne::kernel
