/**
 * @file
 * Ablation (paper §III discussion) — Morphable Counters under 2 MB
 * huge pages vs 4 KB pages. Each Morphable counter block covers two
 * adjacent *physical* 4 KB pages; 4 KB paging scatters adjacent
 * virtual pages, doubling the counter working set and the counter
 * misses.
 */

#include "bench_common.hh"

int
main()
{
    using namespace emcc;
    using namespace emcc::experiments;
    const auto scale = benchutil::announce(
        "Ablation: Morphable under 2MB huge pages vs 4KB pages "
        "(counter miss rate in LLC)");

    Table t({"workload", "2MB pages", "4KB pages"});
    std::vector<double> huge_v, small_v;
    for (const auto &name : benchutil::figureWorkloads()) {
        const auto &workload = cachedWorkload(name, scale.workload);
        std::vector<std::string> row{name};
        for (std::uint64_t page : {2_MiB, 4_KiB}) {
            auto cfg = pintoolConfig(Scheme::LlcBaseline);
            cfg.page_bytes = page;
            const auto r = runFunctional(cfg, workload);
            const double miss = safeRatio(
                static_cast<double>(r.sys.llc_ctr_misses),
                static_cast<double>(r.sys.llc_data_misses));
            (page == 2_MiB ? huge_v : small_v).push_back(miss);
            row.push_back(Table::pct(miss));
        }
        t.addRow(row);
    }
    t.addRow({"mean", Table::pct(mean(huge_v)), Table::pct(mean(small_v))});
    benchutil::report("ablation_page_size", t);
    std::puts("\nexpected: 4KB paging increases counter misses "
              "(the reason the paper evaluates under huge pages)");
    return 0;
}
