/**
 * @file
 * Figure 24 — useless counter accesses to the LLC under EMCC for the
 * regular SPEC CPU2017 / PARSEC 3.0 workloads, normalized to L2 data
 * misses. Paper: ~1% on average.
 */

#include "bench_common.hh"

int
main()
{
    using namespace emcc;
    using namespace emcc::experiments;
    const auto scale = benchutil::announce(
        "Figure 24: useless counter accesses, SPEC/PARSEC regular set");

    Table t({"workload", "useless/L2-data-misses"});
    std::vector<double> vals;
    for (const auto &name : regularWorkloads()) {
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
    benchutil::report("fig24_useless_spec", t);
    std::puts("\npaper: ~1% on average across SPEC/PARSEC");
    return 0;
}
