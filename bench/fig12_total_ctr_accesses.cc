/**
 * @file
 * Figure 12 — total counter accesses to the LLC under EMCC vs the
 * baseline (serial access after LLC data miss), normalized to L2 data
 * misses. Paper: EMCC 35.6% vs baseline ~31.4% (+4.2%).
 */

#include "bench_common.hh"

int
main()
{
    using namespace emcc;
    using namespace emcc::experiments;
    const auto scale = benchutil::announce(
        "Figure 12: total counter accesses to LLC, EMCC vs baseline");

    Table t({"workload", "baseline", "EMCC"});
    std::vector<double> base_vals, emcc_vals;
    for (const auto &name : benchutil::figureWorkloads()) {
        const auto &workload = cachedWorkload(name, scale.workload);
        const auto base = runFunctional(
            pintoolConfig(Scheme::LlcBaseline), workload);
        const auto emcc = runFunctional(pintoolConfig(Scheme::Emcc),
                                        workload);
        const double f_base = safeRatio(
            static_cast<double>(base.sys.baseline_ctr_accesses_to_llc),
            static_cast<double>(base.sys.l2_data_misses));
        const double f_emcc = safeRatio(
            static_cast<double>(emcc.sys.emcc_ctr_accesses_to_llc),
            static_cast<double>(emcc.sys.l2_data_misses));
        base_vals.push_back(f_base);
        emcc_vals.push_back(f_emcc);
        t.addRow({name, Table::pct(f_base), Table::pct(f_emcc)});
    }
    t.addRow({"mean", Table::pct(mean(base_vals)),
              Table::pct(mean(emcc_vals))});
    benchutil::report("fig12_total_ctr_accesses", t);
    std::printf("\npaper: EMCC 35.6%% vs baseline 31.4%% of L2 data "
                "misses (EMCC only +4.2%%)\n");
    return 0;
}
