/**
 * @file
 * Figure 6 — counter hits/misses in the MC cache and LLC for normal
 * data reads, under a 2 MB/core LLC and a 32 KB/core shared counter
 * cache, normalized to memory reads. Paper means: 65% MC hit,
 * 15% LLC hit, 19% LLC miss.
 */

#include "bench_common.hh"

int
main()
{
    using namespace emcc;
    using namespace emcc::experiments;
    const auto scale = benchutil::announce(
        "Figure 6: counter hit/miss breakdown (LLC 2MB/core)");

    Table t({"workload", "MC ctr hit", "LLC ctr hit", "LLC ctr miss"});
    std::vector<double> mc, llc, miss;
    for (const auto &name : benchutil::figureWorkloads()) {
        const auto &workload = cachedWorkload(name, scale.workload);
        const auto r = runFunctional(
            pintoolConfig(Scheme::LlcBaseline, /*llc_mb_per_core=*/2),
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
    benchutil::report("fig06_ctr_hits_2mb", t);
    std::puts("\npaper means: MC hit 65%, LLC hit 15%, LLC miss 19%");
    return 0;
}
