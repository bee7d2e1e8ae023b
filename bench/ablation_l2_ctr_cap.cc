/**
 * @file
 * Ablation (paper §V design choice) — the 32 KB cap on counters
 * resident in L2. Sweeping the cap shows the paper's point: the
 * benefit of EMCC does not come from merely caching *more* counters.
 */

#include "bench_common.hh"

int
main()
{
    using namespace emcc;
    using namespace emcc::experiments;
    const auto scale = benchutil::announce(
        "Ablation: EMCC L2 counter footprint cap (useless/L2-ctr-hit "
        "rates, functional)");

    const std::uint64_t caps[] = {8_KiB, 32_KiB, 128_KiB};
    Table t({"workload", "cap", "L2 ctr hit rate", "useless rate",
             "ctr->LLC rate"});
    for (const auto &name : benchutil::figureWorkloads()) {
        const auto &workload = cachedWorkload(name, scale.workload);
        for (const auto cap : caps) {
            auto cfg = pintoolConfig(Scheme::Emcc);
            cfg.l2_ctr_cap_bytes = cap;
            const auto r = runFunctional(cfg, workload);
            const double hit = safeRatio(
                static_cast<double>(r.sys.emcc_l2_ctr_hits),
                static_cast<double>(r.sys.l2_data_misses));
            const double useless = safeRatio(
                static_cast<double>(r.sys.useless_ctr_accesses),
                static_cast<double>(r.sys.l2_data_misses));
            const double to_llc = safeRatio(
                static_cast<double>(r.sys.emcc_ctr_accesses_to_llc),
                static_cast<double>(r.sys.l2_data_misses));
            t.addRow({name, std::to_string(cap >> 10) + "KB",
                      Table::pct(hit), Table::pct(useless),
                      Table::pct(to_llc)});
        }
    }
    benchutil::report("ablation_l2_ctr_cap", t);
    std::puts("\nexpected: larger caps raise the L2 counter hit rate "
              "with diminishing returns; 32KB is the paper's balance");
    return 0;
}
