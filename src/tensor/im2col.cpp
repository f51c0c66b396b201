#include "tensor/im2col.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace stonne {

index_t
Conv2dShape::macs() const
{
    return N * K * outX() * outY() * R * S * cPerGroup();
}

void
Conv2dShape::validate() const
{
    fatalIf(R <= 0 || S <= 0 || C <= 0 || K <= 0 || G <= 0 || N <= 0 ||
            X <= 0 || Y <= 0,
            "convolution dimensions must be positive");
    fatalIf(stride <= 0, "stride must be positive");
    fatalIf(padding < 0, "padding must be non-negative");
    fatalIf(C % G != 0, "channels ", C, " not divisible by groups ", G);
    fatalIf(K % G != 0, "filters ", K, " not divisible by groups ", G);
    fatalIf(X + 2 * padding < R || Y + 2 * padding < S,
            "filter larger than padded input");
}

Tensor
im2col(const Tensor &input, const Conv2dShape &shape, index_t group)
{
    shape.validate();
    fatalIf(group < 0 || group >= shape.G, "group out of range");
    fatalIf(input.rank() != 4, "im2col expects a rank-4 input tensor");

    const index_t cg = shape.cPerGroup();
    const index_t xo = shape.outX();
    const index_t yo = shape.outY();
    const index_t rows = shape.R * shape.S * cg;
    const index_t cols = shape.N * xo * yo;

    const index_t c0 = group * cg;
    panicIf(input.dim(0) < shape.N || input.dim(1) < c0 + cg ||
                input.dim(2) < shape.X || input.dim(3) < shape.Y,
            "im2col input tensor smaller than the convolution shape");

    // Row (c, r, s) of the output is written contiguously: for each
    // output position (n, ox, oy) in column order, the input element
    // under filter tap (r, s) of channel c0 + c, or 0 in the padding.
    Tensor out({rows, cols});
    const index_t in_y = input.dim(3);
    const index_t in_xy = input.dim(2) * in_y;
    const index_t in_cxy = input.dim(1) * in_xy;
    float *dst = out.data();
    for (index_t c = 0; c < cg; ++c) {
        for (index_t r = 0; r < shape.R; ++r) {
            for (index_t s = 0; s < shape.S; ++s) {
                for (index_t n = 0; n < shape.N; ++n) {
                    const float *plane =
                        input.data() + n * in_cxy + (c0 + c) * in_xy;
                    for (index_t ox = 0; ox < xo; ++ox) {
                        const index_t ix =
                            ox * shape.stride + r - shape.padding;
                        const bool row_in = ix >= 0 && ix < shape.X;
                        for (index_t oy = 0; oy < yo; ++oy, ++dst) {
                            const index_t iy =
                                oy * shape.stride + s - shape.padding;
                            *dst = row_in && iy >= 0 && iy < shape.Y
                                       ? plane[ix * in_y + iy]
                                       : 0.0f;
                        }
                    }
                }
            }
        }
    }
    return out;
}

Tensor
filtersToMatrix(const Tensor &weights, const Conv2dShape &shape,
                index_t group)
{
    shape.validate();
    fatalIf(group < 0 || group >= shape.G, "group out of range");
    fatalIf(weights.rank() != 4, "filtersToMatrix expects rank-4 weights");

    const index_t cg = shape.cPerGroup();
    const index_t kg = shape.kPerGroup();
    const index_t cols = shape.R * shape.S * cg;
    fatalIf(weights.dim(0) != shape.K || weights.dim(1) != cg ||
                weights.dim(2) != shape.R || weights.dim(3) != shape.S,
            "filtersToMatrix weight shape mismatch");

    // A KCRS filter is already its (c, r, s) matrix row, and the
    // group's filters are consecutive: one contiguous block.
    Tensor out({kg, cols});
    const float *src = weights.data() + group * kg * cols;
    std::copy(src, src + kg * cols, out.data());
    return out;
}

void
col2im(const Tensor &result, const Conv2dShape &shape, index_t group,
       Tensor &output)
{
    const index_t xo = shape.outX();
    const index_t yo = shape.outY();
    const index_t kg = shape.kPerGroup();
    const index_t k0 = group * kg;

    fatalIf(result.rank() != 2 || result.dim(0) != kg ||
            result.dim(1) != shape.N * xo * yo,
            "col2im result shape mismatch");
    fatalIf(output.rank() != 4 || output.dim(0) != shape.N ||
                output.dim(1) != shape.K || output.dim(2) != xo ||
                output.dim(3) != yo,
            "col2im output shape mismatch");

    // Row k holds batch n's (ox, oy) plane as one contiguous run, and
    // so does output channel k0 + k of sample n.
    const index_t plane = xo * yo;
    for (index_t k = 0; k < kg; ++k) {
        const float *row = result.data() + k * result.dim(1);
        for (index_t n = 0; n < shape.N; ++n)
            std::copy(row + n * plane, row + (n + 1) * plane,
                      output.data() + (n * shape.K + k0 + k) * plane);
    }
}

} // namespace stonne
