#include "workloads/graph.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/parallel.hh"

namespace emcc {

namespace {

/** Cap on the CSR scatter's threads: each one streams the whole edge
 *  list (8 bytes per edge), so more of them buy little but memory
 *  traffic. */
constexpr unsigned kMaxScatterThreads = 4;

} // namespace

CsrGraph::CsrGraph(std::uint64_t num_vertices, unsigned avg_degree, Rng &rng)
{
    // Round the vertex count up to a power of two (RMAT needs it).
    n_ = 1;
    while (n_ < num_vertices)
        n_ <<= 1;
    const unsigned levels = floorLog2(n_);
    const std::uint64_t m = n_ * avg_degree;

    // RMAT edge generation: one 53-bit draw per level, compared
    // branch-free against kRmatThreshold (see graph.hh). Edge i takes
    // exactly `levels` draws, so its draws start at stream position
    // i * levels: each thread jumps a copy of the stream there
    // (Rng::advance) and fills its own contiguous chunk of packed
    // src << 32 | dst words. The list is the serial one for any thread
    // count, and each chunk is first touched by the thread that fills it.
    auto edge_list = std::make_unique_for_overwrite<std::uint64_t[]>(m);
    const unsigned gen_threads = parallelThreads(m * levels);
    parallelFor(gen_threads, gen_threads, [&](std::size_t t) {
        const std::uint64_t begin = m * t / gen_threads;
        const std::uint64_t end = m * (t + 1) / gen_threads;
        Rng local = rng;
        local.advance(begin * levels);
        for (std::uint64_t i = begin; i < end; ++i) {
            std::uint64_t src = 0, dst = 0;
            for (unsigned l = 0; l < levels; ++l) {
                const std::uint64_t k = local.next() >> 11;
                const unsigned quad = unsigned{k >= kRmatThreshold[0]} +
                                      unsigned{k >= kRmatThreshold[1]} +
                                      unsigned{k >= kRmatThreshold[2]};
                src = (src << 1) | (quad >> 1);
                dst = (dst << 1) | (quad & 1);
            }
            edge_list[i] = src << 32 | dst;
        }
    });
    rng.advance(m * levels);

    // Note on vertex labels: RMAT places hubs at low vertex ids, which
    // concentrates hot property-array accesses on few pages. Real
    // datasets (including the LDBC graphs the paper uses) exhibit the
    // same hub locality — CSR layouts typically cluster high-degree
    // vertices — so the ids are deliberately NOT permuted; a full
    // random permutation would destroy the counter-block reuse that
    // makes EMCC's 32 KB L2 counter cache effective (paper Fig 12).

    // Counting sort by source to build CSR.
    offsets_.assign(n_ + 1, 0);
    for (std::uint64_t i = 0; i < m; ++i)
        ++offsets_[(edge_list[i] >> 32) + 1];
    for (std::uint64_t v = 0; v < n_; ++v)
        offsets_[v + 1] += offsets_[v];

    // Stable scatter, partitioned by source range: part p owns the
    // sources [bound[p], bound[p+1]), about m / parts edges, and streams
    // the whole list writing only its own sources, in edge order. Each
    // source's edges therefore land exactly where the serial scatter
    // puts them. offsets_[v] is v's fill cursor (touched only by v's
    // part); afterwards it holds v's end, which is v+1's begin, so one
    // shift right restores it.
    const unsigned parts = parallelThreads(m, kMaxScatterThreads);
    std::vector<std::uint64_t> bound(parts + 1, n_);
    for (unsigned p = 0; p < parts; ++p) {
        bound[p] = static_cast<std::uint64_t>(
            std::lower_bound(offsets_.begin(), offsets_.end(),
                             m * p / parts) -
            offsets_.begin());
    }
    edges_ = std::make_unique_for_overwrite<std::uint32_t[]>(m);
    parallelFor(parts, parts, [&](std::size_t p) {
        const std::uint64_t lo = bound[p], width = bound[p + 1] - lo;
        for (std::uint64_t i = 0; i < m; ++i) {
            const std::uint64_t e = edge_list[i];
            if ((e >> 32) - lo < width)
                edges_[offsets_[e >> 32]++] = static_cast<std::uint32_t>(e);
        }
    });
    std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
    offsets_[0] = 0;

    edges_base_ = Addr{(n_ + 1) * 8};
    // Align property arrays to a block boundary.
    props_base_ = blockAlign(edges_base_ + m * 4 + kBlockBytes - 1);
}

} // namespace emcc
