/**
 * @file
 * Operands and a comparison for byte-exact kernel tests.
 *
 * Float `==` treats +0 and -0 as equal and never holds for NaN, so a
 * kernel that flips a zero's sign or turns a skipped Inf term into NaN
 * can still pass `Tensor::equals`. These tests compare the bytes, on
 * operands whose low bits change under any reordering of a sum.
 */

#ifndef STONNE_TESTS_EXACT_OPERANDS_HPP
#define STONNE_TESTS_EXACT_OPERANDS_HPP

#include <cstring>
#include <limits>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace stonne::testing_exact {

/** Uniform values with signed zeros, denormals and 1e6-scaled terms. */
inline void
fillExact(Tensor &t, Rng &rng)
{
    t.fillUniform(rng);
    for (index_t e = 0; e < t.size(); ++e) {
        const std::int64_t pick = rng.integer(0, 9);
        if (pick == 0)
            t.at(e) = -0.0f;
        else if (pick == 1)
            t.at(e) = 0.0f;
        else if (pick == 2)
            t.at(e) *= 8 * std::numeric_limits<float>::denorm_min();
        else if (pick == 3)
            t.at(e) *= 1e6f;
    }
}

/** Same shape and the same bytes in every element. */
inline bool
sameBytes(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) *
                           sizeof(float)) == 0;
}

} // namespace stonne::testing_exact

#endif // STONNE_TESTS_EXACT_OPERANDS_HPP
