/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * Simulation determinism matters: every experiment must be exactly
 * reproducible from its seed, so all stochastic behaviour in the repo goes
 * through this xoshiro256** generator rather than std::mt19937 (whose
 * distributions are not specified bit-exactly across standard libraries).
 */

#pragma once

#include <array>
#include <cstdint>

#include "common/log.hh"

namespace emcc {

namespace rng_detail {

/** A GF(2) polynomial of degree < 256: bit i of word i/64 holds the
 *  coefficient of x^i. */
using Poly256 = std::array<std::uint64_t, 4>;

constexpr std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** One xoshiro256 state transition (the linear part of Rng::next()). */
constexpr void
step(std::uint64_t (&s)[4])
{
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
}

/**
 * The characteristic polynomial P of xoshiro256's transition matrix,
 * without its leading x^256 term. P is primitive (the generator has
 * period 2^256 - 1), so it is also the minimal polynomial of any
 * non-zero linear bit sequence of the state; Berlekamp-Massey finds it
 * from 512 bits of one such sequence (bit 0 of word 0, from an
 * arbitrary non-zero state). Evaluated at compile time.
 */
constexpr Poly256
charPoly()
{
    constexpr std::size_t kBits = 512;
    bool seq[kBits] = {};
    std::uint64_t s[4] = {1, 2, 3, 4};
    for (std::size_t i = 0; i < kBits; ++i) {
        seq[i] = (s[0] & 1) != 0;
        step(s);
    }
    // Connection polynomial C(x) = 1 + c_1 x + ... + c_L x^L.
    std::array<bool, kBits + 1> c{true}, b{true};
    std::size_t len = 0, shift = 1;
    for (std::size_t n = 0; n < kBits; ++n) {
        bool d = seq[n];
        for (std::size_t i = 1; i <= len; ++i)
            d ^= c[i] && seq[n - i];
        if (!d) {
            ++shift;
            continue;
        }
        const auto prev = c;
        for (std::size_t i = 0; i + shift <= kBits; ++i)
            c[i + shift] ^= b[i];
        if (2 * len <= n) {
            len = n + 1 - len;
            b = prev;
            shift = 1;
        } else {
            ++shift;
        }
    }
    // A throw is not a constant expression: a wrong degree fails the
    // build.
    if (len != 256)
        throw "xoshiro256 characteristic polynomial must have degree 256";
    // P(x) = x^256 C(1/x): the coefficient of x^j is c_{256-j}.
    Poly256 p{};
    for (std::size_t j = 0; j < 256; ++j) {
        if (c[256 - j])
            p[j / 64] |= std::uint64_t{1} << (j % 64);
    }
    return p;
}

inline constexpr Poly256 kCharPoly = charPoly();

/** a * x mod P. */
constexpr Poly256
mulX(Poly256 a)
{
    const bool carry = (a[3] >> 63) != 0;
    for (std::size_t i = 3; i > 0; --i)
        a[i] = (a[i] << 1) | (a[i - 1] >> 63);
    a[0] <<= 1;
    if (carry) {
        for (std::size_t i = 0; i < 4; ++i)
            a[i] ^= kCharPoly[i];
    }
    return a;
}

/** a * b mod P, by shift-and-add over the bits of @p b. */
constexpr Poly256
mulMod(Poly256 a, const Poly256 &b)
{
    Poly256 acc{};
    for (std::size_t i = 0; i < 256; ++i) {
        if ((b[i / 64] >> (i % 64)) & 1) {
            for (std::size_t w = 0; w < 4; ++w)
                acc[w] ^= a[w];
        }
        a = mulX(a);
    }
    return acc;
}

} // namespace rng_detail

/** xoshiro256** PRNG with splitmix64 seeding. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

    /** Re-initialize the state from a 64-bit seed. */
    void
    reseed(std::uint64_t seed)
    {
        // splitmix64 to spread the seed across the 256-bit state.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rng_detail::rotl(state_[1] * 5, 7) * 9;
        rng_detail::step(state_);
        return result;
    }

    /**
     * Skip @p n draws in O(log n): the same state as @p n calls to
     * next(). The transition is linear over GF(2), state' = T s, so
     * T^n = r(T) with r = x^n mod P, P being T's characteristic
     * polynomial (Cayley-Hamilton). r comes from square-and-multiply
     * on 256-bit polynomials, and r(T) s is accumulated over 256 steps
     * exactly as the reference xoshiro jump() applies its constants.
     */
    void
    advance(unsigned __int128 n)
    {
        using rng_detail::Poly256;
        if (n == 0)
            return;
        int top = 127;
        while (((n >> top) & 1) == 0)
            --top;
        Poly256 r{1, 0, 0, 0};
        for (int bit = top; bit >= 0; --bit) {
            r = rng_detail::mulMod(r, r);
            if ((n >> bit) & 1)
                r = rng_detail::mulX(r);
        }
        std::uint64_t acc[4] = {};
        for (std::size_t i = 0; i < 256; ++i) {
            if ((r[i / 64] >> (i % 64)) & 1) {
                for (int w = 0; w < 4; ++w)
                    acc[w] ^= state_[w];
            }
            rng_detail::step(state_);
        }
        for (int w = 0; w < 4; ++w)
            state_[w] = acc[w];
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        panic_if(bound == 0, "Rng::below(0)");
        // Lemire's multiply-shift rejection method (unbiased).
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        std::uint64_t l = static_cast<std::uint64_t>(m);
        if (l < bound) {
            std::uint64_t t = (0 - bound) % bound;
            while (l < t) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                l = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        panic_if(hi < lo, "Rng::range: hi < lo");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /** The full 256-bit generator state (checkpointing). */
    std::array<std::uint64_t, 4>
    state() const
    {
        return {state_[0], state_[1], state_[2], state_[3]};
    }

    /** Restore a state captured with state(). The next draw continues
     *  the stream exactly where the captured generator left off. */
    void
    setState(const std::array<std::uint64_t, 4> &s)
    {
        for (int i = 0; i < 4; ++i)
            state_[i] = s[static_cast<std::size_t>(i)];
    }

  private:
    std::uint64_t state_[4];
};

} // namespace emcc
