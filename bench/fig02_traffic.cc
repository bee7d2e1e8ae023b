/**
 * @file
 * Figure 2 — DRAM traffic overhead (counter + overflow traffic,
 * normalized to normal data accesses), with and without caching
 * counters in the LLC, split into read and write overhead.
 * Paper: W/o 105% -> W/ 59% on average.
 */

#include "bench_common.hh"

int
main()
{
    using namespace emcc;
    using namespace emcc::experiments;
    const auto scale = benchutil::announce(
        "Figure 2: DRAM traffic overhead normalized to data traffic");

    Table t({"workload", "W/o: reads", "W/o: writes", "W/o: total",
             "W/: reads", "W/: writes", "W/: total"});
    std::vector<double> wo_total, w_total;

    for (const auto &name : benchutil::figureWorkloads()) {
        const auto &workload = cachedWorkload(name, scale.workload);
        auto run = [&](Scheme scheme) {
            return runFunctional(pintoolConfig(scheme), workload);
        };
        const auto wo = run(Scheme::McOnly);
        const auto w = run(Scheme::LlcBaseline);

        // Overhead is every non-data class: counters, tree nodes and
        // overflow re-encryption.
        auto rows = [&](const RunResults &r) {
            constexpr int kData = static_cast<int>(MemClass::Data);
            const Count data_reads = r.dram.reads[kData];
            const Count data_writes = r.dram.writes[kData];
            const double normal =
                static_cast<double>(data_reads + data_writes);
            const double reads = safeRatio(
                static_cast<double>(r.dram.readsAll() - data_reads),
                normal);
            const double writes = safeRatio(
                static_cast<double>(r.dram.writesAll() - data_writes),
                normal);
            return std::pair{reads, writes};
        };
        const auto [wo_r, wo_w] = rows(wo);
        const auto [w_r, w_w] = rows(w);
        wo_total.push_back(wo_r + wo_w);
        w_total.push_back(w_r + w_w);
        t.addRow({name, Table::pct(wo_r), Table::pct(wo_w),
                  Table::pct(wo_r + wo_w), Table::pct(w_r),
                  Table::pct(w_w), Table::pct(w_r + w_w)});
    }
    t.addRow({"mean", "", "", Table::pct(mean(wo_total)), "", "",
              Table::pct(mean(w_total))});
    benchutil::report("fig02_traffic", t);
    std::printf("\npaper: mean total overhead 105%% (W/o) -> 59%% (W/)\n");
    return 0;
}
