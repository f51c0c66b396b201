/**
 * @file
 * Integration tests for the dense memory controller on the flexible
 * (MAERI-like) and rigid (TPU-like) compositions: functional exactness
 * against the CPU reference, bandwidth sensitivity, folding and the
 * ART+DIST psum round-trip.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hpp"
#include "engine/accelerator.hpp"
#include "tensor/reference.hpp"
#include "exact_operands.hpp"

namespace stonne {
namespace {

LayerSpec
convLayer(index_t r, index_t c, index_t k, index_t xy, index_t stride = 1,
          index_t pad = 0, index_t g = 1)
{
    Conv2dShape shape;
    shape.R = r;
    shape.S = r;
    shape.C = c;
    shape.K = k;
    shape.G = g;
    shape.X = xy;
    shape.Y = xy;
    shape.stride = stride;
    shape.padding = pad;
    return LayerSpec::convolution("conv", shape);
}

struct ConvData {
    Tensor input, weights, bias, output;
    explicit ConvData(const Conv2dShape &s, std::uint64_t seed = 1)
        : input({s.N, s.C, s.X, s.Y}),
          weights({s.K, s.cPerGroup(), s.R, s.S}),
          bias({s.K}),
          output({s.N, s.K, s.outX(), s.outY()})
    {
        Rng rng(seed);
        input.fillUniform(rng);
        weights.fillUniform(rng);
        bias.fillUniform(rng, -0.1f, 0.1f);
    }
};

TEST(DenseFlexible, ConvolutionBitMatchesReference)
{
    Accelerator acc(HardwareConfig::maeriLike(64, 16));
    const LayerSpec layer = convLayer(3, 4, 6, 8, 1, 1);
    ConvData d(layer.conv);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    acc.denseController().runConvolution(layer, tile, d.input, d.weights,
                                         d.bias, d.output);
    const Tensor expect =
        ref::conv2d(d.input, d.weights, d.bias, layer.conv);
    EXPECT_TRUE(d.output.equals(expect));
}

TEST(DenseFlexible, FoldedConvolutionBitMatchesReference)
{
    // Window (3*3*32 = 288) exceeds the 64-MS array: folding required.
    Accelerator acc(HardwareConfig::maeriLike(64, 16));
    const LayerSpec layer = convLayer(3, 32, 4, 6, 1, 1);
    ConvData d(layer.conv, 2);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    const ControllerResult r = acc.denseController().runConvolution(
        layer, tile, d.input, d.weights, d.bias, d.output);
    EXPECT_TRUE(d.output.equals(
        ref::conv2d(d.input, d.weights, d.bias, layer.conv)));
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.macs, static_cast<count_t>(layer.conv.macs()));
}

TEST(DenseFlexible, GroupedConvolutionBitMatchesReference)
{
    Accelerator acc(HardwareConfig::maeriLike(64, 16));
    const LayerSpec layer = convLayer(3, 8, 8, 6, 1, 1, /*g=*/4);
    ConvData d(layer.conv, 3);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    acc.denseController().runConvolution(layer, tile, d.input, d.weights,
                                         d.bias, d.output);
    EXPECT_TRUE(d.output.equals(
        ref::conv2d(d.input, d.weights, d.bias, layer.conv)));
}

TEST(DenseFlexible, StridedConvolutionBitMatchesReference)
{
    Accelerator acc(HardwareConfig::maeriLike(128, 32));
    const LayerSpec layer = convLayer(5, 3, 4, 11, 2, 2);
    ConvData d(layer.conv, 4);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    acc.denseController().runConvolution(layer, tile, d.input, d.weights,
                                         d.bias, d.output);
    EXPECT_TRUE(d.output.equals(
        ref::conv2d(d.input, d.weights, d.bias, layer.conv)));
}

TEST(DenseFlexible, LowerBandwidthCostsMoreCycles)
{
    // A 1x1 convolution has no sliding-window reuse, so every step
    // streams its full operand set: delivery bandwidth gates it.
    const LayerSpec layer = convLayer(1, 64, 16, 16, 1, 0);
    cycle_t cycles_full = 0, cycles_quarter = 0;
    {
        Accelerator acc(HardwareConfig::maeriLike(128, 128));
        ConvData d(layer.conv, 5);
        const Tile tile =
            acc.denseController().mapper().generateTile(layer);
        cycles_full = acc.denseController().runConvolution(
            layer, tile, d.input, d.weights, d.bias, d.output).cycles;
    }
    {
        Accelerator acc(HardwareConfig::maeriLike(128, 8));
        ConvData d(layer.conv, 5);
        const Tile tile =
            acc.denseController().mapper().generateTile(layer);
        cycles_quarter = acc.denseController().runConvolution(
            layer, tile, d.input, d.weights, d.bias, d.output).cycles;
    }
    EXPECT_GT(cycles_quarter, cycles_full * 2);
}

TEST(DenseFlexible, ForwardingLinksCutGbTraffic)
{
    // The LMN reuses the sliding-window overlap; forwarding activity
    // must show up and reduce GB reads versus the window volume.
    Accelerator acc(HardwareConfig::maeriLike(128, 32));
    const LayerSpec layer = convLayer(3, 2, 2, 16, 1, 1);
    ConvData d(layer.conv, 6);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    acc.denseController().runConvolution(layer, tile, d.input, d.weights,
                                         d.bias, d.output);
    EXPECT_GT(acc.stats().value("mn.forward_ops"), 0u);
    EXPECT_LT(acc.stats().value("gb.reads"),
              static_cast<count_t>(layer.conv.macs()));
}

TEST(DenseFlexible, ArtDistRoundTripsPsums)
{
    // Plain ART (no accumulation buffer) with folding: psums must
    // travel back through the GB and the MN forwarders.
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    cfg.rn_type = RnType::Art;
    Accelerator acc(cfg);
    const LayerSpec layer = convLayer(3, 32, 2, 5, 1, 1);
    ConvData d(layer.conv, 7);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    acc.denseController().runConvolution(layer, tile, d.input, d.weights,
                                         d.bias, d.output);
    EXPECT_TRUE(d.output.equals(
        ref::conv2d(d.input, d.weights, d.bias, layer.conv)));
    EXPECT_GT(acc.stats().value("mn.psum_forwards"), 0u);
    EXPECT_EQ(acc.stats().value("rn.accumulator_ops"), 0u);
}

TEST(DenseFlexible, GemmBitMatchesReference)
{
    Accelerator acc(HardwareConfig::maeriLike(64, 16));
    Rng rng(8);
    Tensor a({12, 20}), b({20, 15});
    a.fillUniform(rng);
    b.fillUniform(rng);
    Tensor c({12, 15});
    const LayerSpec layer = LayerSpec::gemmLayer("g", 12, 15, 20);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    acc.denseController().runGemm(layer, tile, a, b, c);
    EXPECT_TRUE(c.equals(ref::gemm(a, b)));
}

TEST(DenseFlexible, LinearBitMatchesReference)
{
    Accelerator acc(HardwareConfig::maeriLike(64, 16));
    Rng rng(9);
    Tensor in({3, 24}), w({10, 24}), bias({10});
    in.fillUniform(rng);
    w.fillUniform(rng);
    bias.fillUniform(rng);
    Tensor out({3, 10});
    const LayerSpec layer = LayerSpec::linear("fc", 3, 24, 10);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    acc.denseController().runLinear(layer, tile, in, w, bias, out);
    EXPECT_TRUE(out.equals(ref::linear(in, w, bias)));
}

/**
 * The functional kernel against the naive reference, byte for byte:
 * every output width 1-17 (each vector tail) on 1x1 stride 1 and 2,
 * 1x1 pad 1 (its border outputs have no tap in bounds), 3x3 pad 1,
 * 7x7 stride 2 pad 3, grouped and depthwise layers, filter counts
 * that are not a multiple of four, and batches. Padded layers
 * carry an Inf weight on their corner tap: the reference skips that
 * tap at the corner outputs, so a kernel that multiplies it by a
 * padded zero turns those outputs into NaN.
 */
TEST(DenseFlexible, FunctionalKernelMatchesReferenceBytes)
{
    using testing_exact::fillExact;
    using testing_exact::sameBytes;
    struct Case {
        const char *name;
        index_t r, c, k, g, n, x, stride, pad;
    };
    const Case cases[] = {
        {"1x1/1", 1, 5, 6, 1, 1, 3, 1, 0},
        {"1x1/2", 1, 3, 5, 1, 2, 5, 2, 0},
        {"1x1 pad 1", 1, 4, 5, 1, 1, 3, 1, 1},
        {"3x3 pad 1", 3, 4, 7, 1, 1, 4, 1, 1},
        {"7x7/2 pad 3", 7, 2, 4, 1, 1, 7, 2, 3},
        {"grouped 3x3", 3, 4, 6, 2, 2, 3, 1, 1},
        {"depthwise 3x3", 3, 3, 3, 3, 1, 3, 1, 1},
    };
    Rng rng(71);
    for (const Case &cs : cases) {
        for (index_t w = 1; w <= 17; ++w) {
            // The input width whose output width is w.
            const index_t y = (w - 1) * cs.stride + cs.r - 2 * cs.pad;
            if (y < 1)
                continue;
            SCOPED_TRACE(testing::Message() << cs.name << ", width " << w);
            Conv2dShape s;
            s.R = cs.r;
            s.S = cs.r;
            s.C = cs.c;
            s.K = cs.k;
            s.G = cs.g;
            s.N = cs.n;
            s.X = cs.x;
            s.Y = y;
            s.stride = cs.stride;
            s.padding = cs.pad;
            ASSERT_EQ(s.outY(), w);
            const LayerSpec layer = LayerSpec::convolution("conv", s);
            ConvData d(s);
            fillExact(d.input, rng);
            fillExact(d.weights, rng);
            fillExact(d.bias, rng);
            if (s.padding > 0)
                d.weights.at(0, 0, 0, 0) = INFINITY;
            Accelerator acc(HardwareConfig::maeriLike(64, 16));
            const Tile tile =
                acc.denseController().mapper().generateTile(layer);
            acc.denseController().runConvolution(
                layer, tile, d.input, d.weights, d.bias, d.output);
            const Tensor expect =
                ref::conv2d(d.input, d.weights, d.bias, s);
            EXPECT_TRUE(sameBytes(d.output, expect));
            if (s.padding > 0) {
                EXPECT_FALSE(std::isnan(d.output.at(0, 0, 0, 0)));
            }
        }
    }

    // GEMM and linear layers reach the same kernel as 1x1 convolutions.
    for (index_t w = 1; w <= 17; ++w) {
        SCOPED_TRACE(testing::Message() << "GEMM/linear, width " << w);
        const index_t m = 1 + w % 9;
        const index_t k = 3 + w % 5;
        Tensor a({m, k}), b({k, w}), c({m, w});
        fillExact(a, rng);
        fillExact(b, rng);
        Accelerator acc(HardwareConfig::maeriLike(64, 16));
        const LayerSpec gl = LayerSpec::gemmLayer("g", m, w, k);
        acc.denseController().runGemm(
            gl, acc.denseController().mapper().generateTile(gl), a, b, c);
        EXPECT_TRUE(sameBytes(c, ref::gemm(a, b)));

        Tensor in({w, k}), bias({m}), out({w, m});
        fillExact(in, rng);
        fillExact(bias, rng);
        const LayerSpec ll = LayerSpec::linear("fc", w, k, m);
        acc.denseController().runLinear(
            ll, acc.denseController().mapper().generateTile(ll), in, a,
            bias, out);
        EXPECT_TRUE(sameBytes(out, ref::linear(in, a, bias)));
    }
}

TEST(DenseFlexible, MaxPoolMatchesReference)
{
    Accelerator acc(HardwareConfig::maeriLike(64, 16));
    Rng rng(10);
    Tensor in({1, 6, 8, 8});
    in.fillUniform(rng);
    Conv2dShape shape;
    shape.C = 6;
    shape.X = 8;
    shape.Y = 8;
    const LayerSpec layer = LayerSpec::maxPool("pool", shape, 2, 2);
    Tensor out({1, 6, 4, 4});
    const ControllerResult r =
        acc.denseController().runMaxPool(layer, in, out);
    EXPECT_TRUE(out.equals(ref::maxPool2d(in, 2, 2)));
    EXPECT_GT(r.cycles, 0u);
}

TEST(DenseSystolic, ConvolutionBitMatchesReference)
{
    Accelerator acc(HardwareConfig::tpuLike(64));
    const LayerSpec layer = convLayer(3, 4, 6, 8, 1, 1);
    ConvData d(layer.conv, 11);
    const Tile tile;
    acc.denseController().runConvolution(layer, tile, d.input, d.weights,
                                         d.bias, d.output);
    EXPECT_TRUE(d.output.equals(
        ref::conv2d(d.input, d.weights, d.bias, layer.conv)));
}

TEST(DenseSystolic, MaxPoolIsRejected)
{
    Accelerator acc(HardwareConfig::tpuLike(64));
    Conv2dShape shape;
    shape.C = 4;
    shape.X = 8;
    shape.Y = 8;
    const LayerSpec layer = LayerSpec::maxPool("pool", shape, 2, 2);
    Tensor in({1, 4, 8, 8}), out({1, 4, 4, 4});
    EXPECT_THROW(acc.denseController().runMaxPool(layer, in, out),
                 FatalError);
}

TEST(DenseController, UtilizationIsBounded)
{
    Accelerator acc(HardwareConfig::maeriLike(128, 32));
    const LayerSpec layer = convLayer(3, 8, 8, 10, 1, 1);
    ConvData d(layer.conv, 12);
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    const ControllerResult r = acc.denseController().runConvolution(
        layer, tile, d.input, d.weights, d.bias, d.output);
    EXPECT_GT(r.ms_utilization, 0.0);
    EXPECT_LE(r.ms_utilization, 1.0);
}

TEST(DenseController, RejectsWrongOutputShape)
{
    Accelerator acc(HardwareConfig::maeriLike(64, 16));
    const LayerSpec layer = convLayer(3, 4, 6, 8, 1, 1);
    ConvData d(layer.conv, 13);
    Tensor bad({1, 6, 3, 3});
    const Tile tile =
        acc.denseController().mapper().generateTile(layer);
    EXPECT_THROW(acc.denseController().runConvolution(
                     layer, tile, d.input, d.weights, d.bias, bad),
                 FatalError);
}

} // namespace
} // namespace stonne
