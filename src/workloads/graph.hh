/**
 * @file
 * Synthetic power-law graph substrate for the graphBIG-like kernels.
 *
 * The paper runs graphBIG on the LDBC "Facebook-like" dataset; we
 * substitute a Graph500-style RMAT generator (A=0.57, B=0.19, C=0.19),
 * whose skewed degree distribution produces the same irregular,
 * low-locality address streams that make counters miss.
 *
 * The CSR arrays double as the *address map* of the simulated workload:
 * every kernel access to offsets/edges/properties is recorded at the
 * virtual address the array element would occupy.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace emcc {

/** Compressed-sparse-row graph plus its virtual-address layout. */
class CsrGraph
{
  public:
    /**
     * RMAT quadrant thresholds on the raw 53-bit draw k = next() >> 11,
     * for the Graph500 cumulative probabilities p = A, A+B, A+B+C
     * (A=.57 B=.19 C=.19 D=.05). Each level's quadrant is the number of
     * thresholds k reaches.
     *
     * Rng::uniform() is k * 2^-53. A double p in [0.5, 1) has exponent
     * -1, so T = p * 2^53 is its 53-bit significand: an exact integer,
     * and uniform() < p holds exactly when k < T. Comparing integers
     * therefore draws the same RNG stream and picks the same quadrants
     * as comparing doubles, so the graph and the caller's final Rng
     * state are unchanged by the choice.
     */
    static constexpr std::uint64_t kRmatThreshold[3] = {
        static_cast<std::uint64_t>(0.57 * 0x1p53),
        static_cast<std::uint64_t>(0.76 * 0x1p53),
        static_cast<std::uint64_t>(0.95 * 0x1p53),
    };
    static_assert(static_cast<double>(kRmatThreshold[0]) == 0.57 * 0x1p53 &&
                      static_cast<double>(kRmatThreshold[1]) ==
                          0.76 * 0x1p53 &&
                      static_cast<double>(kRmatThreshold[2]) ==
                          0.95 * 0x1p53,
                  "RMAT thresholds must be exact 53-bit integers");

    /**
     * Generate an RMAT graph. Uses every core; the graph and the final
     * state of @p rng do not depend on the thread count.
     * @param num_vertices  rounded up to a power of two
     * @param avg_degree    edges = vertices * avg_degree
     */
    CsrGraph(std::uint64_t num_vertices, unsigned avg_degree, Rng &rng);

    std::uint64_t numVertices() const { return n_; }
    std::uint64_t numEdges() const { return offsets_.back(); }

    std::uint64_t
    degree(std::uint64_t v) const
    {
        return offsets_[v + 1] - offsets_[v];
    }

    std::uint64_t edgeBegin(std::uint64_t v) const { return offsets_[v]; }
    std::uint64_t edgeEnd(std::uint64_t v) const { return offsets_[v + 1]; }
    std::uint32_t edgeTarget(std::uint64_t e) const { return edges_[e]; }

    // ------------------------------------------------ address layout
    //
    // [offsets 8B x (n+1)] [edges 4B x m] [k property arrays, 8B x n]

    Addr
    offsetsAddr(std::uint64_t v) const
    {
        return Addr{v * 8};
    }

    Addr
    edgeAddr(std::uint64_t e) const
    {
        return edges_base_ + e * 4;
    }

    /** Address of element @p v of property array @p idx (8B elems). */
    Addr
    propAddr(unsigned idx, std::uint64_t v) const
    {
        return props_base_ + (std::uint64_t{idx} * n_ + v) * 8;
    }

    /** Total footprint assuming @p num_props property arrays. */
    Addr
    footprint(unsigned num_props) const
    {
        return props_base_ + std::uint64_t{num_props} * n_ * 8;
    }

  private:
    std::uint64_t n_;
    std::vector<std::uint64_t> offsets_;
    /** Edge targets, grouped by source; allocated uninitialised so
     *  the scatter threads first-touch their own writes. */
    std::unique_ptr<std::uint32_t[]> edges_;
    Addr edges_base_;
    Addr props_base_;
};

} // namespace emcc
