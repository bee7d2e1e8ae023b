/**
 * @file
 * Tests for the experiment runner helpers: canonical configurations,
 * scale resolution, workload caching, and a cross-workload
 * Pintool-mode (runFunctional) property sweep over the paper's full
 * irregular set.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "system/experiment.hh"

namespace emcc {
namespace {

using namespace experiments;

TEST(Experiment, PaperConfigMatchesTableOne)
{
    const auto cfg = paperConfig(Scheme::Emcc);
    EXPECT_EQ(cfg.cores, 4u);
    EXPECT_EQ(cfg.l2_bytes, 1_MiB);
    EXPECT_EQ(cfg.llc_bytes, 8_MiB);
    EXPECT_EQ(cfg.mc_ctr_cache_bytes, 128_KiB);
    EXPECT_EQ(cfg.l2_ctr_cap_bytes, 32_KiB);
    EXPECT_EQ(cfg.aes_latency, nsToTicks(14.0));
    EXPECT_EQ(cfg.dram.channels, 1u);
    EXPECT_EQ(cfg.dram.t_cl, nsToTicks(13.75));
    EXPECT_EQ(cfg.page_bytes, 2_MiB);
    EXPECT_EQ(cfg.design, CounterDesignKind::Morphable);
    EXPECT_TRUE(cfg.countersInLlc());
}

TEST(Experiment, AesBandwidthSplit)
{
    auto cfg = paperConfig(Scheme::Emcc);
    EXPECT_DOUBLE_EQ(cfg.l2AesRate(), 325e6);
    EXPECT_DOUBLE_EQ(cfg.mcAesRate(), 1.3e9);
    cfg.scheme = Scheme::LlcBaseline;
    EXPECT_DOUBLE_EQ(cfg.mcAesRate(), 2.6e9);   // nothing moved
}

TEST(Experiment, PintoolConfigPerCoreLlc)
{
    const auto c2 = pintoolConfig(Scheme::LlcBaseline, 2);
    EXPECT_EQ(c2.llc_bytes / c2.cores, 2_MiB);
    const auto c12 = pintoolConfig(Scheme::LlcBaseline, 12);
    EXPECT_EQ(c12.llc_bytes / c12.cores, 12_MiB);
    EXPECT_EQ(c2.mc_ctr_cache_bytes, 128_KiB);
    EXPECT_EQ(c2.data_region_bytes, 8_GiB);
}

TEST(Experiment, ScaleEnvKnobs)
{
    unsetenv("EMCC_BENCH_FAST");
    unsetenv("EMCC_BENCH_FULL");
    const auto normal = BenchScale::fromEnv();
    setenv("EMCC_BENCH_FAST", "1", 1);
    const auto fast = BenchScale::fromEnv();
    unsetenv("EMCC_BENCH_FAST");
    setenv("EMCC_BENCH_FULL", "1", 1);
    const auto full = BenchScale::fromEnv();
    unsetenv("EMCC_BENCH_FULL");

    EXPECT_LT(fast.workload.trace_len, normal.workload.trace_len);
    EXPECT_LT(normal.workload.trace_len, full.workload.trace_len);
    EXPECT_LT(fast.measure_instructions, normal.measure_instructions);
}

TEST(Experiment, CachedWorkloadReturnsSameObject)
{
    WorkloadParams p;
    p.cores = 1;
    p.trace_len = 1'000;
    p.graph_vertices = 1 << 10;
    const auto &a = cachedWorkload("BFS", p);
    const auto &b = cachedWorkload("BFS", p);
    EXPECT_EQ(&a, &b);
    p.seed = 99;
    const auto &c = cachedWorkload("BFS", p);
    EXPECT_NE(&a, &c);
}

TEST(Experiment, MeanHelper)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 3.0}), 2.0);
}

/**
 * Property sweep: every irregular workload through an EMCC
 * Pintool-mode run must satisfy the structural invariants the figures
 * rely on.
 */
class IrregularSweep : public ::testing::TestWithParam<std::string>
{};

TEST_P(IrregularSweep, EmccInvariantsHold)
{
    WorkloadParams p;
    p.cores = 2;
    p.trace_len = 40'000;
    p.graph_vertices = 1 << 14;
    p.graph_degree = 8;
    p.footprint_scale = 1.0 / 32.0;
    const auto w = buildWorkload(GetParam(), p);

    SystemConfig cfg;
    cfg.cores = 2;
    cfg.l1_bytes = 16_KiB;
    cfg.l2_bytes = 64_KiB;
    cfg.llc_bytes = 256_KiB;
    cfg.mc_ctr_cache_bytes = 8_KiB;
    cfg.l2_ctr_cap_bytes = 4_KiB;
    cfg.data_region_bytes = 8_GiB;
    cfg.scheme = Scheme::Emcc;
    const auto res = runFunctional(cfg, w);
    const SystemStats &r = res.sys;

    EXPECT_EQ(r.data_reads + r.data_writes, w.totalRefs());
    EXPECT_EQ(r.emcc_l2_ctr_hits + r.emcc_l2_ctr_misses, r.l2_data_misses);
    EXPECT_EQ(r.emcc_ctr_accesses_to_llc, r.emcc_l2_ctr_misses);
    EXPECT_LE(r.useless_ctr_accesses, r.l2_ctr_inserts);
    EXPECT_LE(r.l2_ctr_invalidations, r.l2_ctr_inserts);
    EXPECT_LE(r.llc_data_misses, r.l2_data_misses);
    EXPECT_EQ(res.dram.reads[static_cast<int>(MemClass::Data)],
              r.llc_data_misses);
}

INSTANTIATE_TEST_SUITE_P(AllIrregular, IrregularSweep,
                         ::testing::ValuesIn(irregularWorkloads()),
                         [](const auto &pinfo) { return pinfo.param; });

/** The regular set must build and stay cache-friendlier than mcf. */
class RegularSweep : public ::testing::TestWithParam<std::string>
{};

TEST_P(RegularSweep, BuildsAndReplays)
{
    WorkloadParams p;
    p.cores = 1;
    p.trace_len = 20'000;
    p.footprint_scale = 1.0 / 16.0;
    const auto w = buildWorkload(GetParam(), p);
    ASSERT_EQ(w.per_core.size(), 1u);
    EXPECT_EQ(w.per_core[0].size(), p.trace_len);

    SystemConfig cfg;
    cfg.cores = 1;
    cfg.l1_bytes = 16_KiB;
    cfg.l2_bytes = 64_KiB;
    cfg.llc_bytes = 256_KiB;
    cfg.mc_ctr_cache_bytes = 8_KiB;
    cfg.data_region_bytes = 8_GiB;
    cfg.scheme = Scheme::Emcc;
    const auto r = runFunctional(cfg, w);
    EXPECT_EQ(r.sys.data_reads + r.sys.data_writes, p.trace_len);
}

INSTANTIATE_TEST_SUITE_P(AllRegular, RegularSweep,
                         ::testing::ValuesIn(regularWorkloads()),
                         [](const auto &pinfo) { return pinfo.param; });

} // namespace
} // namespace emcc
