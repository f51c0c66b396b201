/**
 * @file
 * Register-blocked functional kernels: the values behind the flexible
 * controllers' simulated outputs.
 *
 * The timing model decides how many cycles an operation takes; these
 * kernels compute what it produces, fast enough that checking every
 * output against the CPU reference stays cheap on Full-scale models.
 * Both are bit-identical to their naive oracles in ref:: because they
 * keep the reference summation order exactly:
 *
 *  - every output accumulates its terms from 0.0f in canonical order —
 *    the in-bounds (c, r, s) taps of its window, or the CSR non-zeros
 *    of its row — and a bias is added last;
 *  - each term is one rounded multiply followed by one rounded add
 *    (no fused multiply-add);
 *  - out-of-bounds (padding) taps are skipped, never multiplied by a
 *    zero, so an Inf or NaN weight on a padded tap stays invisible
 *    exactly as it is to the reference.
 *
 * The speed comes only from doing many independent accumulation chains
 * at once (several filters and several output positions per register
 * block), never from reassociating one chain.
 */

#ifndef STONNE_TENSOR_KERNEL_HPP
#define STONNE_TENSOR_KERNEL_HPP

#include "tensor/im2col.hpp"
#include "tensor/sparse.hpp"
#include "tensor/tensor.hpp"

namespace stonne::kernel {

/**
 * Direct (grouped, strided, padded) convolution, bit-identical to
 * ref::conv2d.
 *
 * @param input (N, C, X, Y); @param weights (K, C/G, R, S);
 * @param bias (K) or empty (adds +0.0f, as the reference does);
 * @param output preallocated (N, K, X', Y'), every element written
 */
void conv2d(const Conv2dShape &shape, const Tensor &input,
            const Tensor &weights, const Tensor &bias, Tensor &output);

/**
 * Sparse-dense product C = A * B over a CSR left operand, bit-identical
 * to ref::spmm (fully pruned rows produce +0.0f).
 *
 * @param b (A.cols, n); @param c preallocated (A.rows, n)
 */
void spmm(const CsrMatrix &a, const Tensor &b, Tensor &c);

} // namespace stonne::kernel

#endif // STONNE_TENSOR_KERNEL_HPP
