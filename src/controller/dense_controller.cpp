#include "controller/dense_controller.hpp"

#include <algorithm>
#include <cstdint>

#include "common/logging.hpp"
#include "controller/delivery.hpp"
#include "engine/event_engine.hpp"
#include "network/dn_popn.hpp"
#include "network/rn_linear.hpp"
#include "network/systolic.hpp"
#include "tensor/im2col.hpp"
#include "tensor/kernel.hpp"
#include "tensor/reference.hpp"

namespace stonne {

namespace {

index_t
blocks(index_t total, index_t t)
{
    return (total + t - 1) / t;
}

} // namespace

DenseController::DenseController(const HardwareConfig &cfg,
                                 EventEngine &engine,
                                 DistributionNetwork &dn,
                                 MultiplierArray &mn, ReductionNetwork &rn,
                                 GlobalBuffer &gb, Dram &dram,
                                 Watchdog *watchdog, Tracer *trace)
    : cfg_(cfg), engine_(engine), dn_(dn), mn_(mn), rn_(rn), gb_(gb),
      dram_(dram), wd_(watchdog), trace_(trace),
      mapper_(cfg.ms_size), phase_(trace)
{
    cfg_.validate();
}

void
DenseController::traceAdvance(cycle_t cycles)
{
    if (trace_ != nullptr && cycles > 0)
        trace_->advance(cycles);
}

ControllerResult
DenseController::runConvFlexible(const Conv2dShape &shape, const Tile &tile,
                                 const Tensor &input, const Tensor &weights,
                                 const Tensor &bias, Tensor &output)
{
    shape.validate();
    const index_t cg = shape.cPerGroup();
    const index_t kg = shape.kPerGroup();
    const index_t xo = shape.outX();
    const index_t yo = shape.outY();
    const index_t window = shape.R * shape.S * cg;
    const index_t vn = tile.vnSize();
    const index_t folds = tile.folds(window);
    const bool folding = folds > 1;
    const index_t bpe = bytesPerElement(cfg_.data_type);

    ControllerResult res;
    const count_t mem0 = gb_.totalReads() + gb_.totalWrites();
    const count_t mult0 = mn_.multOps();

    const index_t nbx = blocks(xo, tile.t_x);
    const index_t nby = blocks(yo, tile.t_y);
    const index_t nbn = blocks(shape.N, tile.t_n);
    const index_t total_steps = nbn * nbx * nby;

    // Loop order follows the configured dataflow (Section IV-B):
    //  - OS: position chunks sized to the accumulator, so psums stay at
    //    the collection point until complete.
    //  - WS: each weight fold streams over ALL positions before the
    //    next fold loads — weights are fetched exactly once, but psums
    //    beyond the accumulator capacity round-trip through the GB.
    //  - IS: like OS, but activations stay resident in the array across
    //    filter blocks; only the first filter block fetches them.
    const index_t outs_per_step = tile.numVns();
    index_t steps_per_chunk = total_steps;
    if (folding && rn_.supportsAccumulation() &&
        cfg_.dataflow != Dataflow::WeightStationary) {
        steps_per_chunk = std::max<index_t>(
            1, cfg_.accumulator_size / outs_per_step);
    }
    // Psums spill to the GB when they outlive the accumulator: always
    // for the plain ART+DIST, and for WS whenever a fold's outputs
    // exceed the buffer.
    const bool psum_spill = folding &&
        (!rn_.supportsAccumulation() ||
         (cfg_.dataflow == Dataflow::WeightStationary &&
          steps_per_chunk * outs_per_step > cfg_.accumulator_size));
    const bool input_stationary =
        cfg_.dataflow == Dataflow::InputStationary;

    // Stage the input activations: traffic is accounted, but the
    // cycles are hidden by the double-buffered prefetch (the previous
    // layer's execution overlaps the first tile's transfer).
    phase_.set("dram staging");
    (void)dram_.transferCycles(
        std::min(input.size(), gb_.capacityElements() / 2) * bpe);

    // Per-step fetch list (lane-tagged for multicast accounting) and
    // the previous step's absolute-coordinate footprint: an element
    // already present anywhere in the array can reach its consumer over
    // the neighbour-forwarding links instead of the GB.
    std::vector<std::int64_t> fetch, prev_abs, cur_abs;
    const auto step_capacity = static_cast<std::size_t>(
        tile.t_g * tile.t_n * tile.t_x * tile.t_y * vn);
    fetch.reserve(step_capacity);
    prev_abs.reserve(step_capacity);
    cur_abs.reserve(step_capacity);
    // Per-fold coordinate tables: the e -> (c, r, s2) decomposition is
    // identical for every mapped position of a fold, so the div/mod
    // chain is hoisted out of the per-element loop into three small
    // tables indexed by the fold-local element offset.
    std::vector<index_t> cxy, rpad, spad;
    cxy.reserve(static_cast<std::size_t>(vn));
    rpad.reserve(static_cast<std::size_t>(vn));
    spad.reserve(static_cast<std::size_t>(vn));

    // Single-lane tiles (one mapped position cluster per step) fetch a
    // footprint whose in-bounds count and sliding-window overlap depend
    // only on (fold, x, y): the batch/group/filter-block indices shift
    // every coordinate by a common offset, which cancels in both the
    // bounds test and the equality comparison against the previous
    // step. Both counts are therefore tabulated once per layer and the
    // per-step loop skips the footprint enumeration entirely; the
    // values are the same ones the enumeration would produce, so
    // delivered-element and forwarding counters are unchanged.
    const bool lane1_tile = tile.t_g == 1 && tile.t_n == 1 &&
        tile.t_x == 1 && tile.t_y == 1;
    std::vector<index_t> kept_tbl, ovl_tbl;
    if (lane1_tile) {
        const std::size_t cells =
            static_cast<std::size_t>(folds) * xo * yo;
        kept_tbl.assign(cells, 0);
        ovl_tbl.assign(cells, 0);
        std::vector<std::int64_t> cur, prev;
        cur.reserve(static_cast<std::size_t>(vn));
        prev.reserve(static_cast<std::size_t>(vn));
        for (index_t f = 0; f < folds; ++f) {
            const index_t e0 = f * vn;
            const index_t len = std::min(vn, window - e0);
            cxy.clear();
            rpad.clear();
            spad.clear();
            for (index_t e = e0; e < e0 + len; ++e) {
                const index_t c = e / (shape.R * shape.S);
                const index_t rem = e % (shape.R * shape.S);
                cxy.push_back(c * shape.X * shape.Y);
                rpad.push_back(rem / shape.S - shape.padding);
                spad.push_back(rem % shape.S - shape.padding);
            }
            for (index_t x = 0; x < xo; ++x) {
                const index_t x_st = x * shape.stride;
                prev.clear();
                for (index_t y = 0; y < yo; ++y) {
                    const index_t y_st = y * shape.stride;
                    cur.clear();
                    for (index_t j = 0; j < len; ++j) {
                        const index_t ix = x_st + rpad[j];
                        const index_t iy = y_st + spad[j];
                        if (ix < 0 || ix >= shape.X || iy < 0 ||
                            iy >= shape.Y)
                            continue;
                        cur.push_back(cxy[j] + ix * shape.Y + iy);
                    }
                    const std::size_t idx = static_cast<std::size_t>(
                        (f * xo + x) * yo + y);
                    kept_tbl[idx] = static_cast<index_t>(cur.size());
                    if (y > 0) {
                        // Footprints are sorted by construction (see
                        // the enumeration comment below), so a
                        // two-pointer sweep counts the overlap.
                        index_t ovl = 0;
                        std::size_t pi = 0;
                        for (const std::int64_t code : cur) {
                            while (pi < prev.size() && prev[pi] < code)
                                ++pi;
                            if (pi < prev.size() && prev[pi] == code)
                                ++ovl;
                        }
                        ovl_tbl[idx] = ovl;
                    }
                    prev.swap(cur);
                }
            }
        }
    }
    cycle_t prev_block_cycles = 0;

    // Pipeline fill: the multiply/reduce/collect pipeline fills once and
    // stays full across folds and filter blocks (weights and operands
    // stream continuously).
    const cycle_t fill = 1 +
        static_cast<cycle_t>(rn_.latency(std::min(vn, window))) + 1;
    res.cycles += fill;
    phase_.set("pipeline fill");
    traceAdvance(fill);

    // Weight reconfiguration is double-buffered: the next fold's
    // weights stream while the current fold computes, so only the
    // excess over the previous fold's compute time is exposed.
    cycle_t prev_fold_cycles = 0;

    for (index_t g0 = 0; g0 < shape.G; g0 += tile.t_g) {
        const index_t tg = std::min(tile.t_g, shape.G - g0);
        for (index_t k0 = 0; k0 < kg; k0 += tile.t_k) {
            const index_t tk = std::min(tile.t_k, kg - k0);
            cycle_t block_cycles = 0;

            // Next weight tile staged from the DRAM prefetch stream
            // behind the previous block's compute.
            const cycle_t stall = dram_.streamingStall(
                tg * tk * window * bpe, prev_block_cycles);
            res.cycles += stall;
            if (stall > 0) {
                phase_.set("dram staging");
                traceAdvance(stall);
            }

            for (index_t chunk0 = 0; chunk0 < total_steps;
                 chunk0 += steps_per_chunk) {
                const index_t chunk_len =
                    std::min(steps_per_chunk, total_steps - chunk0);
                index_t chunk_outputs = 0;

                for (index_t f = 0; f < folds; ++f) {
                    const index_t e0 = f * vn;
                    const index_t len = std::min(vn, window - e0);

                    cxy.clear();
                    rpad.clear();
                    spad.clear();
                    for (index_t e = e0; e < e0 + len; ++e) {
                        const index_t c = e / (shape.R * shape.S);
                        const index_t rem = e % (shape.R * shape.S);
                        cxy.push_back(c * shape.X * shape.Y);
                        rpad.push_back(rem / shape.S - shape.padding);
                        spad.push_back(rem % shape.S - shape.padding);
                    }

                    // Weight reconfiguration: tg*tk*len distinct values,
                    // multicast across the position clusters; only the
                    // part the previous fold's compute could not hide
                    // is exposed.
                    phase_.set("weight fold delivery");
                    const cycle_t w_cycles = engine_.deliver(
                        dn_, gb_, tg * tk * len,
                        tile.t_n * tile.t_x * tile.t_y,
                        PackageKind::Weight);
                    block_cycles += w_cycles > prev_fold_cycles
                        ? w_cycles - prev_fold_cycles : 0;
                    cycle_t fold_cycles = 0;

                    bool have_prev = false;
                    for (index_t si = 0; si < chunk_len; ++si) {
                        const index_t s = chunk0 + si;
                        const index_t yb = s % nby;
                        const index_t xb = (s / nby) % nbx;
                        const index_t nb = s / (nby * nbx);
                        const index_t y0p = yb * tile.t_y;
                        const index_t x0p = xb * tile.t_x;
                        const index_t n0p = nb * tile.t_n;
                        const index_t ty = std::min(tile.t_y, yo - y0p);
                        const index_t tx = std::min(tile.t_x, xo - x0p);
                        const index_t tn =
                            std::min(tile.t_n, shape.N - n0p);

                        // Fetch list: in-bounds input coordinates of this
                        // fold slice across all mapped positions. Filters
                        // share inputs (multicast across tk), so k does
                        // not appear in the coordinates. Different
                        // position lanes map the same element to
                        // different leaf offsets, so the tree cannot
                        // merge them into one multicast: coordinates are
                        // tagged per lane, and only the lane's own
                        // sliding-window overlap is reused (over the LMN
                        // forwarding links).
                        // The list is sorted and duplicate-free by
                        // construction, so no sort/unique pass is
                        // needed: the lane tag ascends over the
                        // (g, n, x, y) nest, and within a lane the kept
                        // codes strictly increase with e — an s2 step
                        // adds 1 to iy; an r step adds Y to ix*Y while
                        // iy moves by at most Y-1 (both endpoints pass
                        // the [0, Y) bounds filter); a c step adds X*Y
                        // while ix*Y+iy stays below X*Y for in-bounds
                        // coordinates.
                        // Single-lane tiles take the tabulated counts
                        // instead (x0p == x and y0p == y there).
                        constexpr std::int64_t kAbsMask =
                            (std::int64_t{1} << 44) - 1;
                        index_t distinct;
                        bool single_lane = false;
                        if (lane1_tile) {
                            distinct = kept_tbl[static_cast<std::size_t>(
                                (f * xo + x0p) * yo + y0p)];
                        } else {
                        fetch.clear();
                        index_t lane = 0;
                        for (index_t g = g0; g < g0 + tg; ++g) {
                            for (index_t n = n0p; n < n0p + tn; ++n) {
                                const index_t nbase =
                                    (n * shape.C + g * cg) *
                                    shape.X * shape.Y;
                                for (index_t x = x0p; x < x0p + tx; ++x) {
                                    const index_t x_st = x * shape.stride;
                                    for (index_t y = y0p; y < y0p + ty;
                                         ++y, ++lane) {
                                        const index_t y_st =
                                            y * shape.stride;
                                        const std::int64_t lane_tag =
                                            lane << 44;
                                        for (index_t j = 0; j < len; ++j) {
                                            const index_t ix =
                                                x_st + rpad[j];
                                            const index_t iy =
                                                y_st + spad[j];
                                            if (ix < 0 || ix >= shape.X ||
                                                iy < 0 || iy >= shape.Y)
                                                continue;
                                            fetch.push_back(
                                                lane_tag |
                                                (nbase + cxy[j] +
                                                 ix * shape.Y + iy));
                                        }
                                    }
                                }
                            }
                        }
                        distinct = static_cast<index_t>(fetch.size());

                        // The lane-stripped footprint is only consulted
                        // by the forwarding-link reuse check below, so
                        // arrays without LMN links skip building it.
                        // With a single mapped lane the tag is zero and
                        // the list is already sorted and duplicate-free,
                        // so the sort/unique pass degenerates to a copy.
                        single_lane = lane == 1;
                        if (mn_.hasForwardingLinks()) {
                            cur_abs.clear();
                            for (const std::int64_t code : fetch)
                                cur_abs.push_back(code & kAbsMask);
                            if (!single_lane) {
                                std::sort(cur_abs.begin(), cur_abs.end());
                                cur_abs.erase(
                                    std::unique(cur_abs.begin(),
                                                cur_abs.end()),
                                    cur_abs.end());
                            }
                        }
                        }

                        // Spatio-temporal reuse over the LMN forwarding
                        // links: operands already in the array from the
                        // previous step reach their consumer through
                        // neighbour links instead of the GB.
                        index_t fresh = distinct;
                        if (input_stationary && k0 > 0) {
                            // IS dataflow: this position chunk's inputs
                            // were pinned by the first filter block.
                            fresh = 0;
                        } else if (mn_.hasForwardingLinks() && have_prev &&
                            yb > 0) {
                            if (lane1_tile) {
                                const index_t ovl = ovl_tbl[
                                    static_cast<std::size_t>(
                                        (f * xo + x0p) * yo + y0p)];
                                fresh = distinct - ovl;
                                mn_.forwardOperands(ovl);
                            } else {
                            fresh = 0;
                            if (single_lane) {
                                // Both footprints are sorted, so a
                                // two-pointer sweep replaces the
                                // per-element binary search.
                                std::size_t pi = 0;
                                const std::size_t pn = prev_abs.size();
                                for (const std::int64_t code : fetch) {
                                    while (pi < pn && prev_abs[pi] < code)
                                        ++pi;
                                    if (pi >= pn || prev_abs[pi] != code)
                                        ++fresh;
                                }
                            } else {
                                for (const std::int64_t code : fetch) {
                                    if (!std::binary_search(
                                            prev_abs.begin(),
                                            prev_abs.end(),
                                            code & kAbsMask))
                                        ++fresh;
                                }
                            }
                            mn_.forwardOperands(distinct - fresh);
                            }
                        }

                        phase_.set("input streaming");
                        cycle_t dl = engine_.deliver(dn_, gb_, fresh, tk,
                                                     PackageKind::Input);

                        const index_t active_vns = tg * tk * tn * tx * ty;
                        mn_.fireMultipliers(
                            std::min(active_vns * len, cfg_.ms_size));
                        res.macs +=
                            static_cast<count_t>(active_vns * len);
                        rn_.bulkReduce(active_vns, len);

                        cycle_t drain = 0;
                        if (folding) {
                            if (!psum_spill) {
                                rn_.accumulate(active_vns);
                            } else {
                                // ART+DIST or an overflowing WS fold:
                                // psums round-trip through the GB and
                                // re-enter via the MN forwarders.
                                phase_.set("psum spill");
                                drain = engine_.drain(gb_, active_vns);
                                mn_.forwardPsums(active_vns);
                                if (f > 0)
                                    dl += engine_.deliver(
                                        dn_, gb_, active_vns, 1,
                                        PackageKind::Psum);
                            }
                        } else {
                            phase_.set("output drain");
                            drain = engine_.drain(gb_, active_vns);
                        }
                        if (f + 1 == folds)
                            chunk_outputs += active_vns;

                        fold_cycles += std::max<cycle_t>(
                            {1, dl, drain});
                        if (!lane1_tile)
                            prev_abs.swap(cur_abs);
                        have_prev = true;
                    }
                    block_cycles += fold_cycles;
                    prev_fold_cycles = fold_cycles;
                }

                if (folding && !psum_spill) {
                    phase_.set("output drain");
                    block_cycles += engine_.drain(gb_, chunk_outputs);
                }
            }

            prev_block_cycles = block_cycles;
            res.cycles += block_cycles;
        }
    }

    // Functional results: every output reduced in canonical order, so
    // the simulated output bit-matches the CPU reference.
    phase_.set("functional reduce");
    kernel::conv2d(shape, input, weights, bias, output);

    res.mem_accesses = gb_.totalReads() + gb_.totalWrites() - mem0;
    res.ms_utilization = res.cycles > 0
        ? static_cast<double>(mn_.multOps() - mult0) /
          (static_cast<double>(cfg_.ms_size) *
           static_cast<double>(res.cycles))
        : 0.0;
    phase_.set("idle");
    return res;
}

ControllerResult
DenseController::runGemmSystolic(const Tensor &a, const Tensor &b, Tensor &c)
{
    phase_.set("systolic gemm");
    auto *popn = dynamic_cast<PointToPointNetwork *>(&dn_);
    auto *lrn = dynamic_cast<LinearReductionNetwork *>(&rn_);
    fatalIf(!popn || !lrn,
            "the systolic pipeline needs a point-to-point DN and a "
            "linear RN");

    // Square array: ms_size = rows * cols.
    index_t rows = 1;
    while (rows * rows < cfg_.ms_size)
        rows <<= 1;
    const index_t cols = cfg_.ms_size / rows;
    fatalIf(gb_.readBandwidth() < rows + cols,
            "a systolic array requires full edge bandwidth (",
            rows + cols, " elements/cycle), configured ",
            gb_.readBandwidth());

    const count_t mem0 = gb_.totalReads() + gb_.totalWrites();
    const count_t mult0 = mn_.multOps();
    const index_t bpe = bytesPerElement(cfg_.data_type);

    ControllerResult res;
    // Operand staging overlaps the previous operation (double
    // buffering); traffic is still accounted.
    (void)dram_.transferCycles(
        std::min(a.size() + b.size(), gb_.capacityElements()) * bpe);

    SystolicArray array(rows, cols, *popn, mn_, *lrn, gb_, wd_);
    // SystolicArray::run accounts each tile's wavefront in closed form
    // under both engines (ticking the watchdog once per tile); its
    // whole region lands on the closed-form track with the counter
    // deltas attached.
    if (trace_ != nullptr)
        trace_->bulkBegin();
    const SystolicResult sr = array.run(a, b, c);
    if (trace_ != nullptr)
        trace_->bulkEnd(sr.cycles, "systolic.run");
    res.cycles += sr.cycles;
    res.macs = sr.macs;
    res.mem_accesses = gb_.totalReads() + gb_.totalWrites() - mem0;
    res.ms_utilization = res.cycles > 0
        ? static_cast<double>(mn_.multOps() - mult0) /
          (static_cast<double>(cfg_.ms_size) *
           static_cast<double>(res.cycles))
        : 0.0;
    phase_.set("idle");
    return res;
}

ControllerResult
DenseController::runConvSystolic(const Conv2dShape &shape,
                                 const Tensor &input, const Tensor &weights,
                                 const Tensor &bias, Tensor &output)
{
    ControllerResult res;
    for (index_t g = 0; g < shape.G; ++g) {
        const Tensor a = filtersToMatrix(weights, shape, g);
        const Tensor b = im2col(input, shape, g);
        Tensor c({a.dim(0), b.dim(1)});
        ControllerResult r = runGemmSystolic(a, b, c);
        if (!bias.empty()) {
            const index_t k0 = g * shape.kPerGroup();
            for (index_t k = 0; k < c.dim(0); ++k)
                for (index_t j = 0; j < c.dim(1); ++j)
                    c.at(k, j) += bias.at(k0 + k);
        }
        col2im(c, shape, g, output);
        res.merge(r);
    }
    return res;
}

ControllerResult
DenseController::runConvolution(const LayerSpec &layer, const Tile &tile,
                                const Tensor &input, const Tensor &weights,
                                const Tensor &bias, Tensor &output)
{
    fatalIf(layer.kind != LayerKind::Convolution,
            "runConvolution expects a convolution layer");
    layer.validate();
    const Conv2dShape &c = layer.conv;
    fatalIf(output.rank() != 4 || output.dim(0) != c.N ||
            output.dim(1) != c.K || output.dim(2) != c.outX() ||
            output.dim(3) != c.outY(),
            "convolution output tensor shape mismatch");

    if (cfg_.dn_type == DnType::PointToPoint)
        return runConvSystolic(c, input, weights, bias, output);

    tile.validate(layer, cfg_.ms_size);
    return runConvFlexible(c, tile, input, weights, bias, output);
}

ControllerResult
DenseController::runGemm(const LayerSpec &layer, const Tile &tile,
                         const Tensor &a, const Tensor &b, Tensor &c)
{
    layer.validate();
    const GemmDims g = layer.gemmView();
    fatalIf(a.rank() != 2 || a.dim(0) != g.m || a.dim(1) != g.k,
            "GEMM operand A shape mismatch");
    fatalIf(b.rank() != 2 || b.dim(0) != g.k || b.dim(1) != g.n,
            "GEMM operand B shape mismatch");
    fatalIf(c.rank() != 2 || c.dim(0) != g.m || c.dim(1) != g.n,
            "GEMM output shape mismatch");

    if (cfg_.dn_type == DnType::PointToPoint)
        return runGemmSystolic(a, b, c);

    // Map the GEMM onto the convolution pipeline: M filters of a
    // 1x1x(K)-element window over an input of K channels and N output
    // columns. Tensors alias the GEMM operands (same row-major layout).
    Conv2dShape shape;
    shape.R = 1;
    shape.S = 1;
    shape.C = g.k;
    shape.K = g.m;
    shape.G = 1;
    shape.N = 1;
    shape.X = 1;
    shape.Y = g.n;

    Tile conv_tile;
    conv_tile.t_c = tile.t_c;
    conv_tile.t_k = tile.t_k;
    conv_tile.t_y = tile.t_y;

    const Tensor input = b.reshaped({1, g.k, 1, g.n});
    const Tensor weights = a.reshaped({g.m, g.k, 1, 1});
    Tensor out({1, g.m, 1, g.n});
    ControllerResult r = runConvFlexible(shape, conv_tile, input, weights,
                                         Tensor(), out);
    c = out.reshaped({g.m, g.n});
    return r;
}

ControllerResult
DenseController::runLinear(const LayerSpec &layer, const Tile &tile,
                           const Tensor &input, const Tensor &weights,
                           const Tensor &bias, Tensor &output)
{
    fatalIf(layer.kind != LayerKind::Linear,
            "runLinear expects a linear layer");
    layer.validate();
    const GemmDims g = layer.gemm; // m = out features, n = batch, k = in
    fatalIf(input.rank() != 2 || input.dim(0) != g.n || input.dim(1) != g.k,
            "linear input shape mismatch");
    fatalIf(weights.rank() != 2 || weights.dim(0) != g.m ||
            weights.dim(1) != g.k,
            "linear weight shape mismatch");
    fatalIf(output.rank() != 2 || output.dim(0) != g.n ||
            output.dim(1) != g.m,
            "linear output shape mismatch");

    // B = input^T so columns are batch samples.
    Tensor b({g.k, g.n});
    for (index_t i = 0; i < g.n; ++i)
        for (index_t j = 0; j < g.k; ++j)
            b.at(j, i) = input.at(i, j);

    Tensor c({g.m, g.n});
    LayerSpec as_gemm =
        LayerSpec::gemmLayer(layer.name + ".gemm", g.m, g.n, g.k);
    ControllerResult r = runGemm(as_gemm, tile, weights, b, c);

    for (index_t i = 0; i < g.n; ++i)
        for (index_t j = 0; j < g.m; ++j)
            output.at(i, j) =
                c.at(j, i) + (bias.empty() ? 0.0f : bias.at(j));
    return r;
}

ControllerResult
DenseController::runMaxPool(const LayerSpec &layer, const Tensor &input,
                            Tensor &output)
{
    fatalIf(layer.kind != LayerKind::MaxPool,
            "runMaxPool expects a max-pooling layer");
    fatalIf(cfg_.dn_type == DnType::PointToPoint,
            "max pooling is not mappable on the systolic composition");
    layer.validate();

    const Conv2dShape &c = layer.conv;
    const index_t w = layer.pool_window;
    const index_t st = layer.pool_stride;
    const index_t xo = (c.X - w) / st + 1;
    const index_t yo = (c.Y - w) / st + 1;
    fatalIf(output.rank() != 4 || output.dim(0) != c.N ||
            output.dim(1) != c.C || output.dim(2) != xo ||
            output.dim(3) != yo,
            "max pool output tensor shape mismatch");

    const Tile tile = mapper_.generateTile(layer);
    const index_t vn = tile.t_c;            // window slice per cluster
    const index_t tk = tile.t_k;            // channels in parallel
    const index_t ty = tile.t_y;            // positions in parallel
    const index_t window = w * w;
    const index_t folds = (window + vn - 1) / vn;

    ControllerResult res;
    const count_t mem0 = gb_.totalReads() + gb_.totalWrites();
    const count_t mult0 = mn_.multOps();

    phase_.set("max pool streaming");
    const index_t positions = c.N * xo * yo;
    std::vector<std::int64_t> fetch, prev_fetch;
    const auto step_capacity = static_cast<std::size_t>(tk * ty * vn);
    fetch.reserve(step_capacity);
    prev_fetch.reserve(step_capacity);
    // Per-fold offset table: e -> r*Y + s2, shared by every position of
    // the fold (same hoisting as the convolution fetch loop).
    std::vector<index_t> roff;
    roff.reserve(static_cast<std::size_t>(vn));

    for (index_t c0 = 0; c0 < c.C; c0 += tk) {
        const index_t tkc = std::min(tk, c.C - c0);
        bool have_prev = false;
        for (index_t p0 = 0; p0 < positions; p0 += ty) {
            const index_t typ = std::min(ty, positions - p0);
            cycle_t dl_total = 0;
            for (index_t f = 0; f < folds; ++f) {
                const index_t e0 = f * vn;
                const index_t len = std::min(vn, window - e0);
                roff.clear();
                for (index_t e = e0; e < e0 + len; ++e)
                    roff.push_back((e / w) * c.Y + e % w);
                // Sorted and duplicate-free by construction: the lane
                // tag ascends over the (ch, p) nest; within a lane every
                // window coordinate is in bounds (pooling never pads),
                // so an s2 step adds 1 and an r step adds Y - (w-1) >= 1
                // (the window fits: w <= Y).
                fetch.clear();
                index_t lane = 0;
                for (index_t ch = c0; ch < c0 + tkc; ++ch) {
                    for (index_t p = p0; p < p0 + typ; ++p, ++lane) {
                        const index_t n = p / (xo * yo);
                        const index_t ox = (p / yo) % xo;
                        const index_t oy = p % yo;
                        const index_t base =
                            ((n * c.C + ch) * c.X + ox * st) * c.Y +
                            oy * st;
                        const std::int64_t lane_tag = lane << 44;
                        for (index_t j = 0; j < len; ++j)
                            fetch.push_back(lane_tag | (base + roff[j]));
                    }
                }
                const auto distinct = static_cast<index_t>(fetch.size());
                index_t fresh = distinct;
                if (mn_.hasForwardingLinks() && have_prev && st < w) {
                    fresh = countFresh(fetch, prev_fetch);
                    mn_.forwardOperands(distinct - fresh);
                }
                dl_total += engine_.deliver(dn_, gb_, fresh, 1,
                                            PackageKind::Input);
                const index_t clusters = tkc * typ;
                rn_.bulkReduce(clusters, len);
                if (folds > 1 && rn_.supportsAccumulation())
                    rn_.accumulate(clusters);
                prev_fetch.swap(fetch);
                have_prev = true;
            }
            phase_.set("output drain");
            const cycle_t drain = engine_.drain(gb_, tkc * typ);
            phase_.set("max pool streaming");
            res.cycles += std::max<cycle_t>({1, dl_total, drain});
        }
    }
    const cycle_t fill = 1 +
        static_cast<cycle_t>(rn_.latency(std::min(vn, window))) + 1;
    res.cycles += fill;
    phase_.set("pipeline fill");
    traceAdvance(fill);

    output = ref::maxPool2d(input, w, st);

    res.mem_accesses = gb_.totalReads() + gb_.totalWrites() - mem0;
    res.ms_utilization = res.cycles > 0
        ? static_cast<double>(mn_.multOps() - mult0) /
          (static_cast<double>(cfg_.ms_size) *
           static_cast<double>(res.cycles))
        : 0.0;
    phase_.set("idle");
    return res;
}

} // namespace stonne
