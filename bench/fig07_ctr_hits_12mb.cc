/**
 * @file
 * Figure 7 — same counter hit/miss breakdown as Figure 6 under a
 * 12 MB/core LLC: the counter miss rate barely improves (paper: 19% ->
 * 14%), motivating a latency (not capacity) solution.
 */

#include "bench_common.hh"

int
main()
{
    using namespace emcc;
    using namespace emcc::experiments;
    const auto scale = benchutil::announce(
        "Figure 7: counter hit/miss breakdown (LLC 12MB/core)");

    Table t({"workload", "MC ctr hit", "LLC ctr hit", "LLC ctr miss"});
    std::vector<double> mc, llc, miss;
    for (const auto &name : benchutil::figureWorkloads()) {
        const auto &workload = cachedWorkload(name, scale.workload);
        const auto r = runFunctional(
            pintoolConfig(Scheme::LlcBaseline, /*llc_mb_per_core=*/12),
            workload);
        const double n = static_cast<double>(r.sys.llc_data_misses);
        const double f_mc =
            safeRatio(static_cast<double>(r.sys.mc_ctr_hits), n);
        const double f_llc =
            safeRatio(static_cast<double>(r.sys.llc_ctr_hits), n);
        const double f_miss =
            safeRatio(static_cast<double>(r.sys.llc_ctr_misses), n);
        mc.push_back(f_mc);
        llc.push_back(f_llc);
        miss.push_back(f_miss);
        t.addRow({name, Table::pct(f_mc), Table::pct(f_llc),
                  Table::pct(f_miss)});
    }
    t.addRow({"mean", Table::pct(mean(mc)), Table::pct(mean(llc)),
              Table::pct(mean(miss))});
    benchutil::report("fig07_ctr_hits_12mb", t);
    std::puts("\npaper means: MC hit 67%, LLC hit 18%, LLC miss 14%");
    return 0;
}
