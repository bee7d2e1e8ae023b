/**
 * @file
 * Tests for the workload substrate: graph generation, kernel trace
 * properties (determinism, footprint, irregularity), synthetic
 * generators, and the registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/parallel.hh"
#include "workloads/graph.hh"
#include "workloads/synthetic.hh"
#include "workloads/workload.hh"

namespace emcc {
namespace {

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.cores = 2;
    p.trace_len = 20'000;
    p.graph_vertices = 1 << 12;
    p.graph_degree = 8;
    p.footprint_scale = 1.0 / 64.0;
    return p;
}

TEST(Registry, NamesMatchPaper)
{
    EXPECT_EQ(irregularWorkloads().size(), 11u);
    EXPECT_EQ(regularWorkloads().size(), 15u);
    EXPECT_TRUE(isGraphWorkload("pageRank"));
    EXPECT_TRUE(isGraphWorkload("BFS"));
    EXPECT_FALSE(isGraphWorkload("canneal"));
    EXPECT_FALSE(isGraphWorkload("mcf"));
    EXPECT_FALSE(isGraphWorkload("blackscholes"));
}

TEST(Graph, RmatGeometry)
{
    Rng rng(1);
    CsrGraph g(1000, 8, rng);
    EXPECT_EQ(g.numVertices(), 1024u);   // rounded to power of two
    EXPECT_EQ(g.numEdges(), 1024u * 8);
    // Offsets consistent.
    std::uint64_t total = 0;
    for (std::uint64_t v = 0; v < g.numVertices(); ++v) {
        EXPECT_EQ(g.degree(v), g.edgeEnd(v) - g.edgeBegin(v));
        total += g.degree(v);
    }
    EXPECT_EQ(total, g.numEdges());
}

TEST(Graph, RmatIsSkewed)
{
    Rng rng(2);
    CsrGraph g(1 << 12, 8, rng);
    std::uint64_t max_deg = 0;
    for (std::uint64_t v = 0; v < g.numVertices(); ++v)
        max_deg = std::max(max_deg, g.degree(v));
    // Power-law-ish: hubs far above the average degree of 8.
    EXPECT_GT(max_deg, 64u);
}

/** Test-only reference model: the original RMAT generator, which
 *  compares Rng::uniform() doubles against the quadrant probabilities,
 *  and its counting sort. CsrGraph must reproduce it byte for byte. */
struct ReferenceRmat
{
    std::vector<std::uint64_t> offsets;
    std::vector<std::uint32_t> edges;

    ReferenceRmat(std::uint64_t num_vertices, unsigned avg_degree, Rng &rng)
    {
        std::uint64_t n = 1;
        while (n < num_vertices)
            n <<= 1;
        const unsigned levels = floorLog2(n);
        const std::uint64_t m = n * avg_degree;

        std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list;
        edge_list.reserve(m);
        for (std::uint64_t i = 0; i < m; ++i) {
            std::uint64_t src = 0, dst = 0;
            for (unsigned l = 0; l < levels; ++l) {
                const double r = rng.uniform();
                // quadrant probabilities: A=.57 B=.19 C=.19 D=.05
                unsigned quad;
                if (r < 0.57) quad = 0;
                else if (r < 0.76) quad = 1;
                else if (r < 0.95) quad = 2;
                else quad = 3;
                src = (src << 1) | (quad >> 1);
                dst = (dst << 1) | (quad & 1);
            }
            edge_list.emplace_back(static_cast<std::uint32_t>(src),
                                   static_cast<std::uint32_t>(dst));
        }

        offsets.assign(n + 1, 0);
        for (const auto &e : edge_list)
            ++offsets[e.first + 1];
        for (std::uint64_t v = 0; v < n; ++v)
            offsets[v + 1] += offsets[v];
        edges.resize(edge_list.size());
        std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
        for (const auto &e : edge_list)
            edges[cursor[e.first]++] = e.second;
    }
};

/** Copy out a graph's CSR arrays for whole-array comparison. */
std::pair<std::vector<std::uint64_t>, std::vector<std::uint32_t>>
csrArrays(const CsrGraph &g)
{
    std::vector<std::uint64_t> offsets(g.numVertices() + 1);
    for (std::uint64_t v = 0; v < g.numVertices(); ++v)
        offsets[v] = g.edgeBegin(v);
    offsets.back() = g.edgeEnd(g.numVertices() - 1);
    std::vector<std::uint32_t> edges(g.numEdges());
    for (std::uint64_t e = 0; e < g.numEdges(); ++e)
        edges[e] = g.edgeTarget(e);
    return {offsets, edges};
}

TEST(Graph, MatchesDoubleCompareReference)
{
    for (const std::uint64_t vertices : {1000ull, 1ull << 12}) {
        for (const unsigned degree : {4u, 8u, 16u}) {
            for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
                SCOPED_TRACE(::testing::Message()
                             << "vertices=" << vertices
                             << " degree=" << degree << " seed=" << seed);
                Rng rng(seed), ref_rng(seed);
                const CsrGraph g(vertices, degree, rng);
                const ReferenceRmat ref(vertices, degree, ref_rng);
                const auto [offsets, edges] = csrArrays(g);
                EXPECT_EQ(offsets, ref.offsets);
                EXPECT_EQ(edges, ref.edges);
                EXPECT_EQ(rng.state(), ref_rng.state());
            }
        }
    }
}

TEST(Graph, ThreadCountInvariant)
{
    struct Shape
    {
        std::uint64_t vertices;
        unsigned degree;
        const char *why;
    };
    const Shape shapes[] = {
        {1, 4, "one vertex: zero levels, every edge is 0->0"},
        {2, 1, "fewer edges than threads"},
        {1, 0, "no edges"},
        {2, 64, "hub: vertex 0 holds ~76% of the edges"},
        {1000, 8, "typical, rounded up to 1024"},
        {1 << 12, 16, "typical"},
    };
    for (const Shape &shape : shapes) {
        for (const std::uint64_t seed : {1ull, 42ull}) {
            Rng ref_rng(seed);
            const ReferenceRmat ref(shape.vertices, shape.degree, ref_rng);
            for (const unsigned threads : {1u, 2u, 3u, 4u, 7u}) {
                SCOPED_TRACE(::testing::Message()
                             << shape.why << ": vertices=" << shape.vertices
                             << " degree=" << shape.degree
                             << " seed=" << seed << " threads=" << threads);
                const ScopedThreadCount pin(threads);
                Rng rng(seed);
                const CsrGraph g(shape.vertices, shape.degree, rng);
                const auto [offsets, edges] = csrArrays(g);
                EXPECT_EQ(offsets, ref.offsets);
                EXPECT_EQ(edges, ref.edges);
                EXPECT_EQ(rng.state(), ref_rng.state());
            }
        }
    }
}

TEST(Graph, HubOutweighsAPartition)
{
    // The hub shape above must really exercise a source whose edges
    // exceed a whole scatter partition's share (m / threads).
    Rng rng(1);
    const CsrGraph g(2, 64, rng);
    EXPECT_GT(g.degree(0), g.numEdges() / 2);
}

TEST(Workloads, TracesIndependentOfThreadCount)
{
    const auto p = tinyParams();
    for (const char *name : {"BFS", "mcf"}) {
        std::vector<std::vector<MemRef>> serial;
        {
            const ScopedThreadCount pin(1);
            serial = buildWorkload(name, p).per_core;
        }
        for (const unsigned threads : {2u, 3u, 4u, 7u}) {
            const ScopedThreadCount pin(threads);
            const auto w = buildWorkload(name, p);
            ASSERT_EQ(w.per_core.size(), serial.size());
            for (std::size_t c = 0; c < serial.size(); ++c) {
                const auto &got = w.per_core[c], &want = serial[c];
                ASSERT_EQ(got.size(), want.size());
                const bool same = std::equal(
                    got.begin(), got.end(), want.begin(),
                    [](const MemRef &a, const MemRef &b) {
                        return a.vaddr == b.vaddr && a.gap == b.gap &&
                               a.is_write == b.is_write;
                    });
                EXPECT_TRUE(same) << name << " core " << c << " threads "
                                  << threads;
            }
        }
    }
}

TEST(Graph, IntegerThresholdsAgreeWithDoubleCompareAtBoundary)
{
    const double probs[3] = {0.57, 0.76, 0.95};
    for (std::size_t i = 0; i < 3; ++i) {
        const double p = probs[i];
        const std::uint64_t t = CsrGraph::kRmatThreshold[i];
        for (const std::uint64_t k : {t - 1, t, t + 1}) {
            SCOPED_TRACE(::testing::Message() << "p=" << p << " k=" << k);
            const double r = static_cast<double>(k) * 0x1.0p-53;
            EXPECT_EQ(!(k >= t), r < p);
        }
    }
}

TEST(Graph, AddressLayoutDisjoint)
{
    Rng rng(3);
    CsrGraph g(1 << 10, 4, rng);
    const Addr off_end = g.offsetsAddr(g.numVertices()) + 8;
    EXPECT_GE(g.edgeAddr(0), off_end);
    const Addr edges_end = g.edgeAddr(g.numEdges() - 1) + 4;
    EXPECT_GE(g.propAddr(0, 0), edges_end);
    EXPECT_GT(g.propAddr(1, 0), g.propAddr(0, g.numVertices() - 1));
    EXPECT_GE(g.footprint(2), g.propAddr(1, g.numVertices() - 1) + 8);
}

TEST(Workloads, DeterministicAcrossBuilds)
{
    const auto p = tinyParams();
    const auto a = buildWorkload("BFS", p);
    const auto b = buildWorkload("BFS", p);
    ASSERT_EQ(a.per_core.size(), b.per_core.size());
    for (size_t c = 0; c < a.per_core.size(); ++c) {
        ASSERT_EQ(a.per_core[c].size(), b.per_core[c].size());
        for (size_t i = 0; i < a.per_core[c].size(); i += 997) {
            EXPECT_EQ(a.per_core[c][i].vaddr, b.per_core[c][i].vaddr);
            EXPECT_EQ(a.per_core[c][i].is_write, b.per_core[c][i].is_write);
        }
    }
}

TEST(Workloads, TracesFillToLength)
{
    const auto p = tinyParams();
    for (const auto &name : {"pageRank", "canneal", "blackscholes"}) {
        const auto w = buildWorkload(name, p);
        ASSERT_EQ(w.per_core.size(), p.cores);
        for (const auto &t : w.per_core)
            EXPECT_EQ(t.size(), p.trace_len) << name;
    }
}

TEST(Workloads, AddressesWithinFootprint)
{
    const auto p = tinyParams();
    for (const auto &name : {"BFS", "mcf", "ferret"}) {
        const auto w = buildWorkload(name, p);
        for (const auto &t : w.per_core)
            for (size_t i = 0; i < t.size(); i += 101)
                ASSERT_LT(t[i].vaddr, w.footprint) << name;
    }
}

TEST(Workloads, GraphWorkloadsShareAddressSpace)
{
    const auto p = tinyParams();
    EXPECT_TRUE(buildWorkload("pageRank", p).shared_address_space);
    EXPECT_FALSE(buildWorkload("canneal", p).shared_address_space);
    EXPECT_FALSE(buildWorkload("leela_s", p).shared_address_space);
}

TEST(Workloads, GraphThreadsDiffer)
{
    const auto p = tinyParams();
    const auto w = buildWorkload("pageRank", p);
    ASSERT_EQ(w.per_core.size(), 2u);
    // Different vertex partitions -> different streams.
    int diff = 0;
    const size_t n = std::min(w.per_core[0].size(), w.per_core[1].size());
    for (size_t i = 0; i < n; i += 37)
        diff += (w.per_core[0][i].vaddr != w.per_core[1][i].vaddr);
    EXPECT_GT(diff, 10);
}

TEST(Workloads, IrregularWorkloadsTouchManyBlocks)
{
    const auto p = tinyParams();
    for (const auto &name : {"pageRank", "mcf", "canneal"}) {
        const auto w = buildWorkload(name, p);
        std::set<BlockNum> blocks;
        for (const auto &r : w.per_core[0])
            blocks.insert(blockNumber(r.vaddr));
        // Irregular: the trace touches a large block population.
        EXPECT_GT(blocks.size(), w.per_core[0].size() / 40) << name;
    }
}

TEST(Workloads, RegularMoreLocalThanIrregular)
{
    const auto p = tinyParams();
    auto distinct = [&](const std::string &name) {
        const auto w = buildWorkload(name, p);
        std::set<BlockNum> blocks;
        for (const auto &r : w.per_core[0])
            blocks.insert(blockNumber(r.vaddr));
        return static_cast<double>(blocks.size()) /
               static_cast<double>(w.per_core[0].size());
    };
    // exchange2_s (1 MiB footprint) is far more cache-friendly than mcf.
    EXPECT_LT(distinct("exchange2_s"), distinct("mcf"));
}

TEST(Workloads, WritesPresent)
{
    const auto p = tinyParams();
    for (const auto &name : {"pageRank", "canneal", "facesim"}) {
        const auto w = buildWorkload(name, p);
        const auto writes = std::count_if(
            w.per_core[0].begin(), w.per_core[0].end(),
            [](const MemRef &r) { return r.is_write; });
        EXPECT_GT(writes, 0) << name;
    }
}

TEST(Workloads, AllRegisteredNamesBuild)
{
    auto p = tinyParams();
    p.trace_len = 2'000;
    for (const auto &name : irregularWorkloads())
        EXPECT_GT(buildWorkload(name, p).totalRefs(), 0u) << name;
    for (const auto &name : regularWorkloads())
        EXPECT_GT(buildWorkload(name, p).totalRefs(), 0u) << name;
}

TEST(Workloads, UnknownNameIsFatal)
{
    EXPECT_THROW(buildWorkload("notABenchmark", tinyParams()),
                 FatalError);
    // Also when the build would otherwise run on several threads.
    const ScopedThreadCount pin(4);
    EXPECT_THROW(buildWorkload("notABenchmark", tinyParams()),
                 FatalError);
}

TEST(TraceRecorder, SplitsMultiBlockAccesses)
{
    TraceRecorder r(100);
    r.load(Addr{60}, 5, 16);   // crosses a block boundary
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r.trace()[0].vaddr, 0u);
    EXPECT_EQ(r.trace()[1].vaddr, 64u);
    EXPECT_EQ(r.trace()[0].gap, 5u);
    EXPECT_EQ(r.trace()[1].gap, 0u);   // gap only precedes the first
}

TEST(TraceRecorder, StopsAtLimit)
{
    TraceRecorder r(3);
    for (int i = 0; i < 10; ++i)
        r.store(Addr{static_cast<std::uint64_t>(i) * 64}, 1);
    EXPECT_TRUE(r.full());
    EXPECT_EQ(r.size(), 3u);
}

TEST(PatternMix, HotRegionConcentratesAccesses)
{
    synth::PatternMix mix;
    mix.footprint_bytes = 16_MiB;
    mix.stream = 0.0;
    mix.random = 1.0;
    mix.hot_bytes = 1_MiB;
    Rng rng(5);
    TraceRecorder r(20'000);
    synth::pattern(mix, rng, r);
    Count hot = 0;
    for (const auto &ref : r.trace())
        hot += (ref.vaddr < Addr{1_MiB});
    // 50% hot + 1/16 of the cold random ~ 53%.
    EXPECT_GT(hot, r.size() / 3);
}

} // namespace
} // namespace emcc
