/**
 * @file
 * Tests for the paper's §IV-F extensions: the inclusive-LLC mode
 * (encrypted & unverified lines, back-invalidation) and the dynamic
 * EMCC-off toggle for non-memory-intensive phases.
 */

#include <gtest/gtest.h>

#include "system/secure_system.hh"

namespace emcc {
namespace {

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
    cfg.data_region_bytes = 1_GiB;
    cfg.scheme = scheme;
    return cfg;
}

const WorkloadSet &
bfsWorkload()
{
    static const WorkloadSet w = buildWorkload("BFS", tinyParams());
    return w;
}

RunResults
runCfg(const SystemConfig &cfg, Count warm = 40'000,
       Count measure = 80'000)
{
    Simulator sim;
    SecureSystem sys(sim, cfg, &bfsWorkload());
    sys.run(warm, measure);
    return sys.results();
}

TEST(InclusiveLlc, RunsAndKeepsSchemeShape)
{
    auto cfg = tinyConfig(Scheme::Emcc);
    cfg.inclusive_llc = true;
    const auto r = runCfg(cfg);
    EXPECT_GT(r.total_ipc, 0.0);
    EXPECT_GT(r.sys.llc_data_misses, 0u);
    // Inclusive fills go into the LLC immediately, so some later L2
    // misses hit lines that are still encrypted & unverified.
    EXPECT_GT(r.sys.llc_unverified_hits, 0u);
}

TEST(InclusiveLlc, NonInclusiveHasNoUnverifiedHits)
{
    const auto r = runCfg(tinyConfig(Scheme::Emcc));
    EXPECT_EQ(r.sys.llc_unverified_hits, 0u);
    EXPECT_EQ(r.sys.inclusive_back_invalidations, 0u);
}

TEST(InclusiveLlc, RaisesLlcHitRate)
{
    // Allocating fills in the LLC turns some would-be LLC misses into
    // (unverified) hits.
    auto incl = tinyConfig(Scheme::Emcc);
    incl.inclusive_llc = true;
    const auto r_incl = runCfg(incl);
    const auto r_nincl = runCfg(tinyConfig(Scheme::Emcc));
    const double incl_rate =
        static_cast<double>(r_incl.sys.llc_data_hits) /
        static_cast<double>(r_incl.sys.llc_data_hits +
                            r_incl.sys.llc_data_misses);
    const double nincl_rate =
        static_cast<double>(r_nincl.sys.llc_data_hits) /
        static_cast<double>(r_nincl.sys.llc_data_hits +
                            r_nincl.sys.llc_data_misses);
    EXPECT_GT(incl_rate, nincl_rate * 0.9);
}

TEST(InclusiveLlc, WorksForBaselineToo)
{
    auto cfg = tinyConfig(Scheme::LlcBaseline);
    cfg.inclusive_llc = true;
    const auto r = runCfg(cfg);
    EXPECT_GT(r.total_ipc, 0.0);
    // The baseline verifies at the MC before caching, so its LLC lines
    // are never unverified.
    EXPECT_EQ(r.sys.llc_unverified_hits, 0u);
}

TEST(DynamicOff, MemoryIntensiveWorkloadStaysOn)
{
    auto cfg = tinyConfig(Scheme::Emcc);
    cfg.dynamic_emcc_off = true;
    cfg.memory_intensity_threshold = 1.0;   // 1 fill per 1000 accesses
    const auto r = runCfg(cfg);
    ASSERT_GT(r.sys.dynamic_windows, 0u);
    // BFS at this scale misses heavily: EMCC stays on nearly always.
    EXPECT_LT(static_cast<double>(r.sys.dynamic_off_windows),
              0.5 * static_cast<double>(r.sys.dynamic_windows));
    EXPECT_GT(r.sys.decrypted_at_l2, 0u);
}

TEST(DynamicOff, HighThresholdForcesOff)
{
    auto cfg = tinyConfig(Scheme::Emcc);
    cfg.dynamic_emcc_off = true;
    cfg.memory_intensity_threshold = 1e9;   // nothing qualifies
    cfg.intensity_window = 512;
    const auto r = runCfg(cfg);
    ASSERT_GT(r.sys.dynamic_windows, 0u);
    EXPECT_EQ(r.sys.dynamic_off_windows, r.sys.dynamic_windows);
    // With EMCC off, the MC decrypts everything (after the first
    // window at most a few L2 decrypts slip through).
    EXPECT_GT(r.sys.decrypted_at_mc, r.sys.decrypted_at_l2 / 4);
}

TEST(DynamicOff, OffCostsLittleOnCacheFriendlyPhases)
{
    // For a cache-resident workload, turning EMCC off dynamically
    // should not hurt (the whole point of the toggle).
    WorkloadParams p = tinyParams();
    const auto w = buildWorkload("exchange2_s", p);
    auto on_cfg = tinyConfig(Scheme::Emcc);
    auto off_cfg = on_cfg;
    off_cfg.dynamic_emcc_off = true;
    off_cfg.memory_intensity_threshold = 50.0;

    Simulator sim_a;
    SecureSystem a(sim_a, on_cfg, &w);
    a.run(20'000, 60'000);
    Simulator sim_b;
    SecureSystem b(sim_b, off_cfg, &w);
    b.run(20'000, 60'000);
    EXPECT_GT(b.results().total_ipc, a.results().total_ipc * 0.97);
}

TEST(AdaptiveOffload, TriggersUnderStarvedPool)
{
    auto cfg = tinyConfig(Scheme::Emcc);
    cfg.l2_aes_fraction = 0.01;   // starved L2 AES pools
    cfg.adaptive_offload = true;
    const auto r = runCfg(cfg);
    EXPECT_GT(r.sys.adaptive_offloads, 0u);
    EXPECT_GT(r.sys.decrypted_at_mc, 0u);
}

TEST(AdaptiveOffload, DisabledMeansNoOffloads)
{
    auto cfg = tinyConfig(Scheme::Emcc);
    cfg.l2_aes_fraction = 0.01;
    cfg.adaptive_offload = false;
    const auto r = runCfg(cfg);
    EXPECT_EQ(r.sys.adaptive_offloads, 0u);
}

TEST(AdaptiveOffload, OffloadHelpsWhenStarved)
{
    auto off_cfg = tinyConfig(Scheme::Emcc);
    off_cfg.l2_aes_fraction = 0.02;
    off_cfg.adaptive_offload = false;
    auto on_cfg = off_cfg;
    on_cfg.adaptive_offload = true;
    const auto without = runCfg(off_cfg);
    const auto with = runCfg(on_cfg);
    EXPECT_GE(with.total_ipc, without.total_ipc);
}

TEST(LlcHitWait, CanBeDisabled)
{
    auto cfg = tinyConfig(Scheme::Emcc);
    cfg.llc_hit_wait = false;
    const auto r = runCfg(cfg);
    EXPECT_GT(r.total_ipc, 0.0);
    EXPECT_GT(r.sys.decrypted_at_l2, 0u);
}

TEST(StatExport, ToStatSetCoversKeyMetrics)
{
    const auto r = runCfg(tinyConfig(Scheme::Emcc));
    const StatSet s = r.toStatSet();
    EXPECT_DOUBLE_EQ(s.get("ipc_total"), r.total_ipc);
    EXPECT_DOUBLE_EQ(s.get("l2_data_misses"),
                     static_cast<double>(r.sys.l2_data_misses));
    EXPECT_DOUBLE_EQ(s.get("decrypted_at_l2"),
                     static_cast<double>(r.sys.decrypted_at_l2));
    EXPECT_TRUE(s.has("dram_data_reads"));
    EXPECT_TRUE(s.has("dram_counter_reads"));
    EXPECT_TRUE(s.has("dram_row_hits"));
    EXPECT_GT(s.get("duration_ns"), 0.0);
}

TEST(StatExport, ToStatSetMatchesRegistryCounters)
{
    // The CSV row and the registry export the same SystemStats list:
    // every sys.* counter appears in toStatSet() under its bare name.
    auto cfg = tinyConfig(Scheme::Emcc);
    cfg.inclusive_llc = true;
    cfg.dynamic_emcc_off = true;
    cfg.intensity_window = 512;
    const auto r = runCfg(cfg);
    const StatSet s = r.toStatSet();
    unsigned matched = 0;
    for (const auto &[name, value] : r.metrics.counters) {
        if (name.rfind("sys.", 0) != 0)
            continue;
        const std::string bare = name.substr(4);
        ASSERT_TRUE(s.has(bare)) << bare;
        EXPECT_DOUBLE_EQ(s.get(bare), static_cast<double>(value)) << bare;
        ++matched;
    }
    EXPECT_EQ(matched, 29u);
    EXPECT_GT(s.get("inclusive_back_invalidations"), 0.0);
    EXPECT_GT(s.get("dynamic_windows"), 0.0);
}

TEST(SchemeNames, AllDistinct)
{
    EXPECT_STREQ(schemeName(Scheme::NonSecure), "non-secure");
    EXPECT_STREQ(schemeName(Scheme::McOnly), "MC-only");
    EXPECT_STREQ(schemeName(Scheme::LlcBaseline), "LLC-baseline");
    EXPECT_STREQ(schemeName(Scheme::Emcc), "EMCC");
}

} // namespace
} // namespace emcc
