/**
 * @file
 * Figure 11 — useless counter accesses to the LLC under EMCC,
 * normalized to L2 data misses. A counter fetch is useless if the
 * fetched block is evicted from L2 without ever serving an LLC data
 * miss. Paper: 3.2% on average.
 */

#include "bench_common.hh"

int
main()
{
    using namespace emcc;
    using namespace emcc::experiments;
    const auto scale = benchutil::announce(
        "Figure 11: useless counter accesses to LLC under EMCC");

    Table t({"workload", "useless/L2-data-misses"});
    std::vector<double> vals;
    for (const auto &name : benchutil::figureWorkloads()) {
        const auto &workload = cachedWorkload(name, scale.workload);
        const auto r = runFunctional(pintoolConfig(Scheme::Emcc),
                                     workload);
        const double f = safeRatio(
            static_cast<double>(r.sys.useless_ctr_accesses),
            static_cast<double>(r.sys.l2_data_misses));
        vals.push_back(f);
        t.addRow({name, Table::pct(f)});
    }
    t.addRow({"mean", Table::pct(mean(vals))});
    benchutil::report("fig11_useless_ctr", t);
    std::puts("\npaper: 3.2% on average (thanks to caching counters "
              "in L2)");
    return 0;
}
