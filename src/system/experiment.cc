#include "system/experiment.hh"

#include <cstdlib>
#include <map>
#include <memory>

#include "common/log.hh"
#include "common/sync.hh"
#include "common/thread_annotations.hh"
#include "obs/profile.hh"

namespace emcc {
namespace experiments {

namespace {

/** The process-wide workload memo. A named struct (not function-local
 *  statics) so the map can carry a GUARDED_BY annotation and Clang's
 *  thread-safety analysis can check every access path. */
struct WorkloadCache
{
    sync::Mutex mu;
    std::map<std::string, std::unique_ptr<WorkloadSet>> sets
        EMCC_GUARDED_BY(mu);
};

WorkloadCache &
workloadCache()
{
    static WorkloadCache cache;
    return cache;
}

} // namespace

BenchScale
BenchScale::fromEnv()
{
    // The default scale keeps the paper's point intact: footprints far
    // exceed the LLC and the counter working set far exceeds the MC's
    // 128 KB counter cache, so counters really live in the LLC.
    BenchScale s;
    s.workload.cores = 4;
    s.workload.trace_len = 400'000;
    s.workload.graph_vertices = 1ull << 21;
    s.workload.graph_degree = 8;
    s.workload.footprint_scale = 1.0;
    s.warmup_instructions = 100'000;
    s.measure_instructions = 200'000;

    if (std::getenv("EMCC_BENCH_FAST")) {
        s.workload.trace_len = 150'000;
        s.workload.graph_vertices = 1ull << 18;
        s.workload.footprint_scale = 0.25;
        s.warmup_instructions = 50'000;
        s.measure_instructions = 100'000;
    } else if (std::getenv("EMCC_BENCH_FULL")) {
        s.workload.trace_len = 2'000'000;
        s.workload.graph_vertices = 1ull << 22;
        s.workload.footprint_scale = 1.0;
        s.warmup_instructions = 500'000;
        s.measure_instructions = 1'200'000;
    }
    return s;
}

const WorkloadSet &
cachedWorkload(const std::string &name, const WorkloadParams &params)
{
    // Keyed by name + the parameters that affect trace content. The
    // mutex makes concurrent first-builds safe (campaign worker pools);
    // the returned sets are immutable and never evicted, so readers
    // need no further synchronization once the reference escapes.
    char key[256];
    std::snprintf(key, sizeof(key), "%s/%u/%zu/%llu/%u/%llu/%.6f",
                  name.c_str(), params.cores, params.trace_len,
                  static_cast<unsigned long long>(params.graph_vertices),
                  params.graph_degree,
                  static_cast<unsigned long long>(params.seed),
                  params.footprint_scale);
    WorkloadCache &cache = workloadCache();
    sync::MutexLock lock(cache.mu);
    auto it = cache.sets.find(key);
    if (it == cache.sets.end()) {
        it = cache.sets
                 .emplace(key, std::make_unique<WorkloadSet>(
                                   buildWorkload(name, params)))
                 .first;
    }
    return *it->second;
}

SystemConfig
paperConfig(Scheme scheme)
{
    SystemConfig cfg;   // defaults are Table I already
    cfg.scheme = scheme;
    return cfg;
}

SystemConfig
pintoolConfig(Scheme scheme, std::uint64_t llc_mb_per_core)
{
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.l2_bytes = 1_MiB;
    cfg.llc_bytes = llc_mb_per_core * 1_MiB * cfg.cores;
    cfg.mc_ctr_cache_bytes = 128_KiB;   // 32 KB/core shared
    cfg.l2_ctr_cap_bytes = 32_KiB;
    cfg.data_region_bytes = 8_GiB;
    cfg.seed = 1;
    cfg.scheme = scheme;
    return cfg;
}

RunResults
runTiming(const SystemConfig &cfg, const WorkloadSet &workload,
          const BenchScale &scale)
{
    return runTiming(cfg, workload, scale, RunOptions{});
}

RunResults
runTiming(const SystemConfig &cfg, const WorkloadSet &workload,
          const BenchScale &scale, const RunOptions &opts)
{
    Simulator sim;
    if (opts.tracer)
        sim.setTracer(opts.tracer);
    if (opts.ledger)
        sim.setLedger(opts.ledger);
    if (opts.resmon)
        sim.setResMon(opts.resmon);
    if (opts.critpath)
        sim.setCritPath(opts.critpath);
    if (opts.cancel)
        sim.setStopFlag(opts.cancel);
    obs::HostTimer timer;
    SecureSystem sys(sim, cfg, &workload);
    if (opts.series)
        sys.attachSeries(opts.series);
    if (opts.sample.enabled()) {
        sys.runSampled(opts.sample);
    } else {
        if (opts.ffwd > 0)
            sys.fastForward(opts.ffwd);
        sys.run(scale.warmup_instructions, scale.measure_instructions);
    }
    RunResults results = sys.results();
    results.host_seconds = timer.seconds();
    return results;
}

RunResults
runFunctional(const SystemConfig &cfg, const WorkloadSet &workload)
{
    // Every builder fills each core's trace to the same length, so one
    // fast-forward of that length replays every trace exactly once.
    const std::size_t len = workload.per_core.at(0).size();
    for (const auto &trace : workload.per_core) {
        fatal_if(trace.size() != len,
                 "runFunctional needs equal-length traces (%zu vs %zu)",
                 trace.size(), len);
    }
    Simulator sim;
    SecureSystem sys(sim, cfg, &workload);
    sys.fastForward(len);
    RunResults results;
    results.sys = sys.stats();
    results.dram = sys.dram().aggregateStats();
    return results;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

} // namespace experiments
} // namespace emcc
