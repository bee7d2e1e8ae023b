#include "workloads/graph.hh"

#include <algorithm>

#include "common/log.hh"

namespace emcc {

CsrGraph::CsrGraph(std::uint64_t num_vertices, unsigned avg_degree, Rng &rng)
{
    // Round the vertex count up to a power of two (RMAT needs it).
    n_ = 1;
    while (n_ < num_vertices)
        n_ <<= 1;
    const unsigned levels = floorLog2(n_);
    const std::uint64_t m = n_ * avg_degree;

    // RMAT edge generation: one 53-bit draw per level, compared
    // branch-free against kRmatThreshold (see graph.hh).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list;
    edge_list.reserve(m);
    for (std::uint64_t i = 0; i < m; ++i) {
        std::uint64_t src = 0, dst = 0;
        for (unsigned l = 0; l < levels; ++l) {
            const std::uint64_t k = rng.next() >> 11;
            const unsigned quad = unsigned{k >= kRmatThreshold[0]} +
                                  unsigned{k >= kRmatThreshold[1]} +
                                  unsigned{k >= kRmatThreshold[2]};
            src = (src << 1) | (quad >> 1);
            dst = (dst << 1) | (quad & 1);
        }
        edge_list.emplace_back(static_cast<std::uint32_t>(src),
                               static_cast<std::uint32_t>(dst));
    }

    // Note on vertex labels: RMAT places hubs at low vertex ids, which
    // concentrates hot property-array accesses on few pages. Real
    // datasets (including the LDBC graphs the paper uses) exhibit the
    // same hub locality — CSR layouts typically cluster high-degree
    // vertices — so the ids are deliberately NOT permuted; a full
    // random permutation would destroy the counter-block reuse that
    // makes EMCC's 32 KB L2 counter cache effective (paper Fig 12).

    // Counting sort by source to build CSR.
    offsets_.assign(n_ + 1, 0);
    for (const auto &e : edge_list)
        ++offsets_[e.first + 1];
    for (std::uint64_t v = 0; v < n_; ++v)
        offsets_[v + 1] += offsets_[v];
    // Scatter with offsets_[v] as v's fill cursor; afterwards it holds
    // v's end, which is v+1's begin, so one shift right restores it.
    edges_.resize(edge_list.size());
    for (const auto &e : edge_list)
        edges_[offsets_[e.first]++] = e.second;
    std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
    offsets_[0] = 0;

    edges_base_ = Addr{(n_ + 1) * 8};
    // Align property arrays to a block boundary.
    props_base_ = blockAlign(edges_base_ + edges_.size() * 4 +
                             kBlockBytes - 1);
}

} // namespace emcc
