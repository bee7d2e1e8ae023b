/**
 * @file
 * Tests for the Pintool-mode characterization runs (runFunctional: one
 * functional fast-forward of the timing system through every trace):
 * traffic accounting, counter hit/miss buckets, EMCC useless-counter
 * tracking, and the cross-scheme relationships the paper's Figs
 * 2/6/11/12 rest on.
 */

#include <gtest/gtest.h>

#include "system/experiment.hh"

namespace emcc {
namespace {

using experiments::runFunctional;

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.cores = 2;
    p.trace_len = 60'000;
    p.graph_vertices = 1 << 15;
    p.graph_degree = 8;
    p.footprint_scale = 1.0 / 32.0;
    return p;
}

SystemConfig
tinyConfig(Scheme scheme)
{
    SystemConfig cfg;
    cfg.cores = 2;
    cfg.l1_bytes = 16_KiB;
    cfg.l2_bytes = 64_KiB;
    cfg.llc_bytes = 256_KiB;
    cfg.mc_ctr_cache_bytes = 8_KiB;
    cfg.l2_ctr_cap_bytes = 4_KiB;
    cfg.scheme = scheme;
    cfg.data_region_bytes = 1_GiB;
    return cfg;
}

const WorkloadSet &
bfsWorkload()
{
    static const WorkloadSet w = buildWorkload("BFS", tinyParams());
    return w;
}

Count
dramReads(const RunResults &r, MemClass cls)
{
    return r.dram.reads[static_cast<int>(cls)];
}

Count
dramWrites(const RunResults &r, MemClass cls)
{
    return r.dram.writes[static_cast<int>(cls)];
}

TEST(Characterizer, BasicConservation)
{
    const auto r = runFunctional(tinyConfig(Scheme::LlcBaseline),
                                 bfsWorkload());
    EXPECT_EQ(r.sys.data_reads + r.sys.data_writes,
              bfsWorkload().totalRefs());
    EXPECT_GE(r.sys.l2_data_misses, r.sys.llc_data_misses);
    EXPECT_EQ(dramReads(r, MemClass::Data), r.sys.llc_data_misses);
    // Every read reaching the MC lands in exactly one counter bucket.
    EXPECT_EQ(r.sys.mc_ctr_hits + r.sys.llc_ctr_hits +
                  r.sys.llc_ctr_misses,
              r.sys.llc_data_misses);
}

TEST(Characterizer, NonSecureHasNoMetadataTraffic)
{
    const auto r = runFunctional(tinyConfig(Scheme::NonSecure),
                                 bfsWorkload());
    EXPECT_EQ(dramReads(r, MemClass::Counter), 0u);
    EXPECT_EQ(dramWrites(r, MemClass::Counter), 0u);
    EXPECT_EQ(r.sys.mc_ctr_hits + r.sys.llc_ctr_hits +
                  r.sys.llc_ctr_misses,
              0u);
}

TEST(Characterizer, CachingCountersInLlcReducesDramCounterTraffic)
{
    // The Fig-2 headline: LLC counter caching cuts DRAM traffic
    // overhead substantially.
    const auto without = runFunctional(tinyConfig(Scheme::McOnly),
                                       bfsWorkload());
    const auto with = runFunctional(tinyConfig(Scheme::LlcBaseline),
                                    bfsWorkload());
    EXPECT_LT(dramReads(with, MemClass::Counter),
              dramReads(without, MemClass::Counter));
}

TEST(Characterizer, McOnlyNeverHitsLlcCounters)
{
    const auto r = runFunctional(tinyConfig(Scheme::McOnly),
                                 bfsWorkload());
    EXPECT_EQ(r.sys.llc_ctr_hits, 0u);
    EXPECT_EQ(r.sys.baseline_ctr_accesses_to_llc, 0u);
}

TEST(Characterizer, EmccTracksL2CounterActivity)
{
    const auto r = runFunctional(tinyConfig(Scheme::Emcc), bfsWorkload());
    EXPECT_GT(r.sys.l2_ctr_inserts, 0u);
    EXPECT_GT(r.sys.emcc_ctr_accesses_to_llc, 0u);
    // Per paper definition, every L2 data miss triggers exactly one L2
    // counter lookup (hit or miss).
    EXPECT_EQ(r.sys.emcc_l2_ctr_hits + r.sys.emcc_l2_ctr_misses,
              r.sys.l2_data_misses);
    EXPECT_EQ(r.sys.emcc_ctr_accesses_to_llc, r.sys.emcc_l2_ctr_misses);
    // Useless accesses are a subset of inserts.
    EXPECT_LE(r.sys.useless_ctr_accesses, r.sys.l2_ctr_inserts);
}

TEST(Characterizer, EmccUselessFractionIsSmall)
{
    // The Fig-11 claim: caching counters in L2 filters almost all
    // useless counter fetches (paper: 3.2% of L2 data misses for the
    // irregular set).
    const auto r = runFunctional(tinyConfig(Scheme::Emcc), bfsWorkload());
    ASSERT_GT(r.sys.l2_data_misses, 0u);
    const double useless =
        static_cast<double>(r.sys.useless_ctr_accesses) /
        static_cast<double>(r.sys.l2_data_misses);
    EXPECT_LT(useless, 0.25);
}

TEST(Characterizer, EmccL2FiltersLlcCounterAccesses)
{
    // The L2 counter cache should filter out many counter requests that
    // the baseline design would *conceptually* make; EMCC's counter
    // accesses to LLC stay within a modest factor of the baseline's
    // (Fig 12: 35.6% vs 31.4% of L2 data misses).
    const auto emcc = runFunctional(tinyConfig(Scheme::Emcc),
                                    bfsWorkload());
    const auto base = runFunctional(tinyConfig(Scheme::LlcBaseline),
                                    bfsWorkload());
    const double emcc_rate =
        static_cast<double>(emcc.sys.emcc_ctr_accesses_to_llc) /
        static_cast<double>(emcc.sys.l2_data_misses);
    const double base_rate =
        static_cast<double>(base.sys.baseline_ctr_accesses_to_llc) /
        static_cast<double>(base.sys.l2_data_misses);
    EXPECT_GT(emcc_rate, 0.0);
    EXPECT_GT(base_rate, 0.0);
    EXPECT_LT(emcc_rate, base_rate + 0.5);
}

TEST(Characterizer, WritebacksGenerateCounterUpdatesAndInvalidations)
{
    const auto r = runFunctional(tinyConfig(Scheme::Emcc), bfsWorkload());
    EXPECT_GT(dramWrites(r, MemClass::Data), 0u);
    // Counter invalidations in L2 occur but are rare (Fig 23: 1.7% of
    // inserts on average).
    EXPECT_LE(r.sys.l2_ctr_invalidations, r.sys.l2_ctr_inserts);
}

TEST(Characterizer, BiggerLlcImprovesCounterHitRate)
{
    const auto small = tinyConfig(Scheme::LlcBaseline);
    auto big = tinyConfig(Scheme::LlcBaseline);
    big.llc_bytes = 2_MiB;   // 1 MiB per core
    const auto rs = runFunctional(small, bfsWorkload());
    const auto rb = runFunctional(big, bfsWorkload());
    const double small_miss =
        static_cast<double>(rs.sys.llc_ctr_misses) /
        static_cast<double>(rs.sys.llc_data_misses);
    const double big_miss =
        static_cast<double>(rb.sys.llc_ctr_misses) /
        static_cast<double>(rb.sys.llc_data_misses);
    // Counter misses shrink (or stay flat within noise) with a bigger
    // LLC; the paper's Fig-7 point is that the improvement is small.
    EXPECT_LE(big_miss, small_miss * 1.2 + 0.005);
}

TEST(Characterizer, SmallFootprintWorkloadMostlyHitsCaches)
{
    const auto w = buildWorkload("exchange2_s", tinyParams());
    const auto r = runFunctional(tinyConfig(Scheme::Emcc), w);
    // 1 MiB scaled footprint in 64 KiB L2 + 256 KiB LLC: most refs hit.
    EXPECT_LT(r.sys.llc_data_misses,
              (r.sys.data_reads + r.sys.data_writes) / 4);
}

TEST(Characterizer, MorphableCoversMoreThanSc64)
{
    const auto morph_cfg = tinyConfig(Scheme::LlcBaseline);
    auto sc_cfg = tinyConfig(Scheme::LlcBaseline);
    sc_cfg.design = CounterDesignKind::Sc64;
    const auto morph = runFunctional(morph_cfg, bfsWorkload());
    const auto sc = runFunctional(sc_cfg, bfsWorkload());
    // Morphable's 8 KiB coverage -> fewer counter misses than SC-64's
    // 4 KiB for the same workload.
    EXPECT_LE(morph.sys.llc_ctr_misses, sc.sys.llc_ctr_misses);
}

} // namespace
} // namespace emcc
