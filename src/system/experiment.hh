/**
 * @file
 * Shared experiment-runner helpers for the bench harnesses: canonical
 * paper configurations, cached workload construction, and one-call
 * timing / functional runs.
 *
 * Scale: bench binaries default to a reduced-but-faithful scale (the
 * full Table-I cache sizes with somewhat smaller traces) so the whole
 * figure suite regenerates in minutes. Set EMCC_BENCH_FAST=1 to shrink
 * further (smoke mode), or EMCC_BENCH_FULL=1 for the big runs.
 */

#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "system/config.hh"
#include "system/secure_system.hh"
#include "workloads/workload.hh"

namespace emcc {
namespace experiments {

/** How much simulation the bench run should do. */
struct BenchScale
{
    WorkloadParams workload;
    Count warmup_instructions = 150'000;
    Count measure_instructions = 300'000;

    /** Resolve from the environment (EMCC_BENCH_FAST / EMCC_BENCH_FULL). */
    static BenchScale fromEnv();
};

/** Build (and memoize per-process) the traces for a benchmark. */
const WorkloadSet &cachedWorkload(const std::string &name,
                                  const WorkloadParams &params);

/** The paper's Table-I configuration for a given scheme. */
SystemConfig paperConfig(Scheme scheme);

/** The paper's Pintool configuration (Figs 2/6/7/11/12/24): L2 1 MB
 *  per thread, LLC @p llc_mb_per_core MB per core, 32 KB/core counter
 *  cache, an 8 GiB protected data region. */
SystemConfig pintoolConfig(Scheme scheme,
                           std::uint64_t llc_mb_per_core = 2);

/** Run the timing system once and return its results. */
RunResults runTiming(const SystemConfig &cfg, const WorkloadSet &workload,
                     const BenchScale &scale);

/** Observability hooks for a timing run. */
struct RunOptions
{
    /** Event tracer to attach, or null for no tracing. Must be attached
     *  before the system is constructed (components bind their tracks
     *  in their constructors), which is why this rides through the
     *  runner instead of being set afterwards. */
    obs::Tracer *tracer = nullptr;

    /** Per-miss latency attribution ledger, or null to run without
     *  attribution. Same constructor-ordering constraint as the
     *  tracer: the system captures the pointer when it is built. */
    obs::LatencyLedger *ledger = nullptr;

    /** Interval time-series sink, or null for no periodic snapshots.
     *  Sampling starts at the beginning of the measurement phase. */
    obs::StatsSeries *series = nullptr;

    /** Resource-contention monitor, or null to run without contention
     *  accounting (--no-resmon). Constructor-ordering constraint as
     *  above: components register their resources when built. */
    obs::ResourceMonitor *resmon = nullptr;

    /** Per-miss critical-path analyzer, or null. Needs a ledger to see
     *  any records (it observes them just before the ledger folds). */
    obs::CritPathAnalyzer *critpath = nullptr;

    /** Cooperative cancellation flag, or null to run to completion.
     *  Raised from another host thread (campaign deadline watchdog) or
     *  a signal handler; the run winds down at the next event boundary
     *  and its results come back with partial == true. */
    const std::atomic<bool> *cancel = nullptr;

    /** Functional fast-forward: replay this many memory references per
     *  core architecturally before the detailed warmup (--ffwd).
     *  Ignored when sampling is enabled (the SampleSpec carries its own
     *  per-window fast-forward length). */
    Count ffwd = 0;

    /** Sampled-simulation parameters; spec.enabled() switches the run
     *  from run(warmup, measure) to runSampled(spec), and the scale's
     *  warmup/measure instruction counts are ignored. */
    SampleSpec sample;
};

/** Run the timing system once with observability hooks attached.
 *  results.metrics holds the full registry snapshot and
 *  results.host_seconds the host wall-clock cost of the run. */
RunResults runTiming(const SystemConfig &cfg, const WorkloadSet &workload,
                     const BenchScale &scale, const RunOptions &opts);

/** The Pintool-mode run: fast-forward every core once through its
 *  whole trace on the functional clock of the timing system. Fills
 *  results.sys and results.dram (per-class DRAM traffic); the timing
 *  fields stay zero. */
RunResults runFunctional(const SystemConfig &cfg,
                         const WorkloadSet &workload);

/** Mean of a vector (0 when empty) — for the papers' `mean` columns. */
double mean(const std::vector<double> &v);

} // namespace experiments
} // namespace emcc
