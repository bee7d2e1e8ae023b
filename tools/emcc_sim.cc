/**
 * @file
 * emcc_sim — command-line driver for the EMCC simulator.
 *
 * Runs one timing experiment from command-line knobs and prints a full
 * statistics report. This is the entry point a downstream user reaches
 * for before writing code against the library API.
 *
 * Usage examples:
 *   emcc_sim --workload pageRank --scheme emcc
 *   emcc_sim --workload mcf --scheme baseline --design sc64 --channels 8
 *   emcc_sim --workload BFS --scheme emcc --aes-ns 25 --l2-aes 0.8 \
 *            --measure 500000 --inclusive
 *   emcc_sim --workload BFS --inject-faults "bus:count=20;replay:count=1" \
 *            --fault-seed 7 --watchdog-us 50
 *   emcc_sim --list
 *
 * Exit codes: 0 success, 1 simulation error, 2 bad command line /
 * configuration, 3 unrecovered integrity violation (--fault-strict),
 * 5 interrupted (SIGINT/SIGTERM) — partial results were flushed and
 * the stats JSON carries "partial":true.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/error.hh"
#include "common/table.hh"
#include "obs/profile.hh"
#include "system/experiment.hh"
#include "workloads/trace_io.hh"

namespace {

using namespace emcc;

/** Raised by SIGINT/SIGTERM; polled by the Simulator between events so
 *  an interrupted run still flushes partial --stats-json/--stats-series
 *  output (marked "partial":true) before exiting with code 5. */
std::atomic<bool> g_stop{false};

extern "C" void
onStopSignal(int)
{
    g_stop.store(true);
}

void
usage()
{
    std::puts(
        "emcc_sim — EMCC secure-memory simulator driver\n"
        "\n"
        "  --workload NAME    benchmark to run (see --list); default BFS\n"
        "  --scheme S         nonsecure | mconly | baseline | emcc\n"
        "  --design D         monolithic | sc64 | morphable\n"
        "  --cores N          number of cores (default 4)\n"
        "  --channels N       DRAM channels (default 1)\n"
        "  --aes-ns X         AES latency in ns (default 14)\n"
        "  --l2-aes F         fraction of AES units at L2s (default 0.5)\n"
        "  --ctr-cache KB     MC counter cache size (default 128)\n"
        "  --l2-ctr-cap KB    EMCC L2 counter cap (default 32)\n"
        "  --page KB          page size in KB (default 2048)\n"
        "  --warmup N         warmup instructions/core (default 100000)\n"
        "  --measure N        measured instructions/core (default 200000)\n"
        "  --trace-len N      trace references/core (default 400000)\n"
        "  --footprint-scale X\n"
        "                     scale the data footprint of synthetic\n"
        "                     (non-graph) workloads only by X (10 = ten\n"
        "                     times the paper's default; big scales pair\n"
        "                     well with --sample); graph workloads are\n"
        "                     sized by their vertex count\n"
        "\n"
        "sampled simulation (SMARTS-style):\n"
        "  --ffwd N           functionally fast-forward N memory refs\n"
        "                     per core (architectural state only, no\n"
        "                     event timing) before the detailed warmup;\n"
        "                     with --sample, before each window\n"
        "  --sample K         run K fast-forward + detailed windows\n"
        "                     instead of one long measurement; per-\n"
        "                     window estimates aggregate into sample.*\n"
        "                     metrics with confidence intervals.\n"
        "                     Incompatible with --inject-faults and\n"
        "                     --stats-series\n"
        "  --sample-warm N    detailed warm-up instructions/core per\n"
        "                     window (default 10000)\n"
        "  --sample-measure N measured instructions/core per window\n"
        "                     (default 30000)\n"
        "  --sample-ffwd-first N\n"
        "                     fast-forward N refs/core before the FIRST\n"
        "                     window only (later windows use --ffwd);\n"
        "                     sized to carry big footprints past their\n"
        "                     warm-up transient (default: --ffwd)\n"
        "  --checkpoint-roundtrip\n"
        "                     exercise save->scramble->restore at every\n"
        "                     window boundary; the stats JSON must stay\n"
        "                     byte-identical to the same run without\n"
        "                     this flag (requires --sample)\n"
        "  --inclusive        inclusive LLC (paper section IV-F)\n"
        "  --dynamic-off      dynamic EMCC off (paper section IV-F)\n"
        "  --xpt              XPT-style LLC miss prediction\n"
        "  --no-offload       disable adaptive AES offload\n"
        "  --seed N           workload/NoC seed (default 42)\n"
        "  --csv FILE         append results as CSV (header + one row)\n"
        "  --save-trace FILE  save the built traces and exit\n"
        "  --load-trace FILE  replay traces from FILE instead of\n"
        "                     building the workload\n"
        "  --list             print known workloads and exit\n"
        "\n"
        "observability:\n"
        "  --stats-json FILE  dump the full metrics registry as JSON\n"
        "                     (deterministic for a fixed seed; FILE of\n"
        "                     '-' writes to stdout)\n"
        "  --stats-interval MS\n"
        "                     sample the registry every MS simulated\n"
        "                     milliseconds of the measurement phase\n"
        "                     (fractional values allowed; requires\n"
        "                     --stats-series)\n"
        "  --stats-series FILE\n"
        "                     JSONL sink for the interval snapshots,\n"
        "                     one emcc-stats-series-v1 object per line\n"
        "                     ('-' writes to stdout)\n"
        "  --no-ledger        disable per-miss latency attribution (the\n"
        "                     lat.l2miss.* histograms and breakdown\n"
        "                     table; on by default)\n"
        "  --no-resmon        disable the resource-contention monitor\n"
        "                     and critical-path analyzer (the res.* and\n"
        "                     cp.* metrics and the bottleneck report;\n"
        "                     on by default). The run is then\n"
        "                     metric-identical to builds without them\n"
        "  --trace FILE       write a Chrome trace_event JSON timeline\n"
        "                     (load in chrome://tracing or Perfetto)\n"
        "  --trace-cats LIST  comma-separated categories to record:\n"
        "                     sim,cache,noc,dram,crypto,secmem,res or\n"
        "                     'all' (default all; only with --trace)\n"
        "\n"
        "fault injection & resilience:\n"
        "  --inject-faults SPEC  fault campaign, e.g.\n"
        "                        \"bus:count=20:period=500;replay:count=1\"\n"
        "                        kinds: data mac ctr replay bus ctrcache\n"
        "                               nocdelay nocdrop aesstall\n"
        "                        keys: count period prob delay_ns\n"
        "  --fault-seed N        injector seed (default 1)\n"
        "  --fault-retries N     recovery attempts before an integrity\n"
        "                        failure is terminal (default 3)\n"
        "  --fault-strict        abort the run (exit 3) on a terminal\n"
        "                        integrity violation\n"
        "  --watchdog-us X       forward-progress watchdog window in\n"
        "                        simulated us (default 0 = off)\n"
        "  --no-leak-check       skip the post-run event/MSHR leak check\n"
        "  --leak-strict         fail (exit 4) if the post-run leak\n"
        "                        check finds anything in flight\n"
        "\n"
        "SIGINT/SIGTERM interrupt the run at the next event boundary:\n"
        "partial stats/series output is flushed with \"partial\":true\n"
        "and the exit code is 5.\n");
}

/** Parse a mandatory integer/float option value; throws ConfigError on
 *  garbage so the CLI reports it instead of silently reading 0. */
long long
parseInt(const std::string &opt, const char *text)
{
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 0);
    if (end == text || *end != '\0')
        throw ConfigError("bad integer '" + std::string(text) + "' for " +
                          opt);
    return v;
}

double
parseFloat(const std::string &opt, const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        throw ConfigError("bad number '" + std::string(text) + "' for " +
                          opt);
    return v;
}

int
runMain(int argc, char **argv)
{
    using namespace emcc::experiments;

    std::string workload = "BFS";
    std::string save_trace, load_trace, csv_path;
    std::string stats_json_path, trace_path, trace_cats = "all";
    std::string stats_series_path;
    double stats_interval_ms = 0.0;
    bool leak_strict = false;
    bool no_ledger = false;
    bool no_resmon = false;
    Count ffwd = 0;
    SampleSpec sample;
    sample.warm = 10'000;
    sample.measure = 30'000;
    SystemConfig cfg = paperConfig(Scheme::Emcc);
    BenchScale scale = BenchScale::fromEnv();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                throw ConfigError("missing value for " + arg);
            return argv[++i];
        };
        auto nextInt = [&] { return parseInt(arg, next()); };
        auto nextFloat = [&] { return parseFloat(arg, next()); };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--list") {
            std::puts("irregular (paper Figs 2-23):");
            for (const auto &n : irregularWorkloads())
                std::printf("  %s\n", n.c_str());
            std::puts("regular (paper Fig 24):");
            for (const auto &n : regularWorkloads())
                std::printf("  %s\n", n.c_str());
            return 0;
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--scheme") {
            cfg.scheme = parseScheme(next());
        } else if (arg == "--design") {
            cfg.design = parseCounterDesign(next());
        } else if (arg == "--cores") {
            cfg.cores = static_cast<unsigned>(nextInt());
            scale.workload.cores = cfg.cores;
        } else if (arg == "--channels") {
            cfg.dram.channels = static_cast<unsigned>(nextInt());
        } else if (arg == "--aes-ns") {
            cfg.aes_latency = nsToTicks(nextFloat());
        } else if (arg == "--l2-aes") {
            cfg.l2_aes_fraction = nextFloat();
        } else if (arg == "--ctr-cache") {
            cfg.mc_ctr_cache_bytes =
                static_cast<std::uint64_t>(nextInt()) * 1024;
        } else if (arg == "--l2-ctr-cap") {
            cfg.l2_ctr_cap_bytes =
                static_cast<std::uint64_t>(nextInt()) * 1024;
        } else if (arg == "--page") {
            cfg.page_bytes = static_cast<std::uint64_t>(nextInt()) * 1024;
        } else if (arg == "--warmup") {
            scale.warmup_instructions = static_cast<Count>(nextInt());
        } else if (arg == "--measure") {
            scale.measure_instructions = static_cast<Count>(nextInt());
        } else if (arg == "--trace-len") {
            scale.workload.trace_len = static_cast<std::size_t>(nextInt());
        } else if (arg == "--footprint-scale") {
            scale.workload.footprint_scale = nextFloat();
            if (scale.workload.footprint_scale <= 0.0)
                throw ConfigError("--footprint-scale must be > 0");
        } else if (arg == "--ffwd") {
            ffwd = static_cast<Count>(nextInt());
        } else if (arg == "--sample") {
            sample.windows = static_cast<unsigned>(nextInt());
        } else if (arg == "--sample-warm") {
            sample.warm = static_cast<Count>(nextInt());
        } else if (arg == "--sample-measure") {
            sample.measure = static_cast<Count>(nextInt());
        } else if (arg == "--sample-ffwd-first") {
            sample.ffwd_first = static_cast<Count>(nextInt());
        } else if (arg == "--checkpoint-roundtrip") {
            sample.checkpoint_roundtrip = true;
        } else if (arg == "--stats-json") {
            stats_json_path = next();
        } else if (arg == "--stats-interval") {
            stats_interval_ms = nextFloat();
            if (stats_interval_ms <= 0.0)
                throw ConfigError("--stats-interval must be > 0 ms");
        } else if (arg == "--stats-series") {
            stats_series_path = next();
        } else if (arg == "--no-ledger") {
            no_ledger = true;
        } else if (arg == "--no-resmon") {
            no_resmon = true;
        } else if (arg == "--trace") {
            trace_path = next();
        } else if (arg == "--trace-cats") {
            trace_cats = next();
        } else if (arg == "--seed") {
            cfg.seed = static_cast<std::uint64_t>(nextInt());
            scale.workload.seed = cfg.seed;
        } else if (arg == "--csv") {
            csv_path = next();
        } else if (arg == "--save-trace") {
            save_trace = next();
        } else if (arg == "--load-trace") {
            load_trace = next();
        } else if (arg == "--inclusive") {
            cfg.inclusive_llc = true;
        } else if (arg == "--dynamic-off") {
            cfg.dynamic_emcc_off = true;
        } else if (arg == "--xpt") {
            cfg.xpt = true;
        } else if (arg == "--no-offload") {
            cfg.adaptive_offload = false;
        } else if (arg == "--inject-faults") {
            cfg.faults = FaultSpec::parse(next());
        } else if (arg == "--fault-seed") {
            cfg.fault_seed = static_cast<std::uint64_t>(nextInt());
        } else if (arg == "--fault-retries") {
            cfg.max_verify_retries = static_cast<unsigned>(nextInt());
        } else if (arg == "--fault-strict") {
            cfg.fault_strict = true;
        } else if (arg == "--watchdog-us") {
            cfg.watchdog_window = nsToTicks(nextFloat() * 1000.0);
        } else if (arg == "--no-leak-check") {
            cfg.leak_check = false;
        } else if (arg == "--leak-strict") {
            // Strict mode implies the check itself even if an earlier
            // --no-leak-check turned it off.
            leak_strict = true;
            cfg.leak_check = true;
        } else {
            throw ConfigError("unknown argument '" + arg + "'");
        }
    }
    cfg.validate();
    if (stats_series_path.empty() != (stats_interval_ms == 0.0))
        throw ConfigError("--stats-interval and --stats-series must be "
                          "given together");
    if (sample.checkpoint_roundtrip && !sample.enabled())
        throw ConfigError("--checkpoint-roundtrip requires --sample "
                          "(only sampled window boundaries are fully "
                          "quiesced, so only they are checkpointable)");
    if (sample.enabled() && cfg.faults.enabled())
        throw ConfigError("--sample cannot run fault campaigns "
                          "(functional fast-forward has no fault model)");
    if (sample.enabled() && !stats_series_path.empty())
        throw ConfigError("--sample cannot drive --stats-series "
                          "(interval snapshots assume one contiguous "
                          "measurement phase)");
    if (ffwd > 0 && cfg.faults.enabled())
        throw ConfigError("--ffwd cannot run fault campaigns "
                          "(functional fast-forward has no fault model)");
    if (sample.ffwd_first > 0 && !sample.enabled())
        throw ConfigError("--sample-ffwd-first requires --sample (a "
                          "plain run already takes --ffwd)");
    sample.ffwd_refs = ffwd;

    std::printf("workload: %s | scheme: %s | design: %s\n\n",
                workload.c_str(), schemeName(cfg.scheme),
                counterDesignName(cfg.design));
    std::fputs(cfg.renderTable().c_str(), stdout);
    if (cfg.faults.enabled()) {
        std::printf("fault campaign: %s (seed %llu, %u retries%s)\n",
                    cfg.faults.render().c_str(),
                    static_cast<unsigned long long>(cfg.fault_seed),
                    cfg.max_verify_retries,
                    cfg.fault_strict ? ", strict" : "");
    }

    // Host time to build (or load) the traces, for the profiling block.
    const obs::HostTimer build_timer;
    WorkloadSet loaded;
    if (!load_trace.empty()) {
        loaded = loadWorkload(load_trace);
        if (loaded.per_core.empty())
            throw ConfigError("could not load trace '" + load_trace + "'");
        std::printf("\nloaded trace '%s' (%s)\n", load_trace.c_str(),
                    loaded.name.c_str());
    }
    const WorkloadSet &set = !load_trace.empty()
        ? loaded : cachedWorkload(workload, scale.workload);
    const double build_seconds = build_timer.seconds();

    if (!save_trace.empty()) {
        if (!saveWorkload(set, save_trace))
            throw SimError("could not write trace '" + save_trace + "'");
        std::printf("saved %zu traces to %s\n", set.per_core.size(),
                    save_trace.c_str());
        return 0;
    }

    std::printf("\nfootprint: %.1f MB, %zu refs/core, %s address space\n",
                static_cast<double>(set.footprint.value()) / 1048576.0, set.per_core[0].size(),
                set.shared_address_space ? "shared" : "per-core");

    // Tracer must exist before the system is built (components bind
    // their tracks at construction), hence the runner option.
    std::unique_ptr<obs::Tracer> tracer;
    if (!trace_path.empty())
        tracer = std::make_unique<obs::Tracer>(
            obs::parseTraceCats(trace_cats));
    std::unique_ptr<obs::LatencyLedger> ledger;
    if (!no_ledger)
        ledger = std::make_unique<obs::LatencyLedger>();
    std::unique_ptr<obs::StatsSeries> series;
    if (!stats_series_path.empty())
        series = std::make_unique<obs::StatsSeries>(
            stats_series_path, nsToTicks(stats_interval_ms * 1e6));
    std::unique_ptr<obs::ResourceMonitor> resmon;
    std::unique_ptr<obs::CritPathAnalyzer> critpath;
    if (!no_resmon) {
        resmon = std::make_unique<obs::ResourceMonitor>();
        // The analyzer reads the ledger's records, so it rides the
        // same default and dies with --no-ledger.
        if (ledger)
            critpath = std::make_unique<obs::CritPathAnalyzer>();
    }
    RunOptions opts;
    opts.tracer = tracer.get();
    opts.ledger = ledger.get();
    opts.series = series.get();
    opts.resmon = resmon.get();
    opts.critpath = critpath.get();
    opts.cancel = &g_stop;
    opts.ffwd = ffwd;
    opts.sample = sample;
    const auto r = runTiming(cfg, set, scale, opts);

    std::puts("\n=== results ===");
    Table t({"metric", "value"});
    auto row = [&](const char *k, double v, int digits = 2) {
        t.addRow({k, Table::num(v, digits)});
    };
    row("total IPC (sum over cores)", r.total_ipc, 3);
    row("simulated time (us)", r.duration_ns / 1000.0, 1);
    row("L2 data misses", static_cast<double>(r.sys.l2_data_misses), 0);
    row("LLC data misses", static_cast<double>(r.sys.llc_data_misses), 0);
    row("avg L2 miss latency (ns)",
        safeRatio(r.sys.l2_miss_latency_sum_ns,
                  static_cast<double>(r.sys.l2_miss_latency_count)), 1);
    row("DRAM data reads",
        static_cast<double>(r.dram.reads[0]), 0);
    row("DRAM counter reads",
        static_cast<double>(r.dram.reads[1]), 0);
    row("MC counter hits", static_cast<double>(r.sys.mc_ctr_hits), 0);
    row("LLC counter hits", static_cast<double>(r.sys.llc_ctr_hits), 0);
    row("LLC counter misses",
        static_cast<double>(r.sys.llc_ctr_misses), 0);
    if (cfg.countersInL2()) {
        row("decrypted at L2",
            static_cast<double>(r.sys.decrypted_at_l2), 0);
        row("decrypted at MC",
            static_cast<double>(r.sys.decrypted_at_mc), 0);
        row("adaptive offloads",
            static_cast<double>(r.sys.adaptive_offloads), 0);
        row("L2 counter inserts",
            static_cast<double>(r.sys.l2_ctr_inserts), 0);
        row("L2 counter invalidations",
            static_cast<double>(r.sys.l2_ctr_invalidations), 0);
        row("useless counter fetches",
            static_cast<double>(r.sys.useless_ctr_accesses), 0);
    }
    if (cfg.inclusive_llc) {
        row("unverified LLC hits",
            static_cast<double>(r.sys.llc_unverified_hits), 0);
    }
    if (cfg.dynamic_emcc_off) {
        row("dynamic-off windows",
            static_cast<double>(r.sys.dynamic_off_windows), 0);
        row("total sampling windows",
            static_cast<double>(r.sys.dynamic_windows), 0);
    }
    row("counter overflows", static_cast<double>(r.sys.overflows), 0);
    std::fputs(t.render().c_str(), stdout);

    if (sample.enabled()) {
        // Per-metric mean ± 95% CI over the measured windows; the full
        // per-window values live under sample.* in the stats JSON.
        const auto &fm = r.metrics.formulas;
        auto fv = [&fm](const std::string &k) {
            auto it = fm.find(k);
            return it == fm.end() ? 0.0 : it->second;
        };
        std::puts("\n=== sampled windows ===");
        Table st({"estimate", "mean", "ci95"});
        auto srow = [&](const char *label, const char *key, int digits) {
            st.addRow({label,
                       Table::num(fv(std::string(key) + ".mean"), digits),
                       Table::num(fv(std::string(key) + ".ci95"),
                                  digits)});
        };
        std::printf("windows: %u (ffwd %llu refs", sample.windows,
                    static_cast<unsigned long long>(sample.ffwd_refs));
        if (sample.ffwd_first > 0)
            std::printf(", first window %llu",
                        static_cast<unsigned long long>(sample.ffwd_first));
        std::printf(", warm %llu + measure %llu instr/core each)\n",
                    static_cast<unsigned long long>(sample.warm),
                    static_cast<unsigned long long>(sample.measure));
        srow("total IPC", "sample.ipc", 3);
        srow("L2 miss latency (ns)", "sample.l2_miss_ns", 1);
        srow("counter hit rate", "sample.ctr_hit_rate", 4);
        std::fputs(st.render().c_str(), stdout);
    }

    if (ledger && ledger->records() > 0) {
        std::puts("\n=== latency attribution ===");
        std::fputs(ledger->renderTable().c_str(), stdout);
    }

    if (resmon) {
        std::puts("\n=== bottleneck report ===");
        std::fputs(resmon->renderTable().c_str(), stdout);
        if (critpath && critpath->records() > 0) {
            std::fputc('\n', stdout);
            std::fputs(critpath->renderTable().c_str(), stdout);
        }
    }

    if (cfg.faults.enabled()) {
        std::puts("\n=== fault campaign ===");
        std::fputs(r.faults.render().c_str(), stdout);
        std::printf("recovery: %llu MAC failures, %llu retries, "
                    "%llu recovered, %llu fatal\n",
                    static_cast<unsigned long long>(
                        r.sys.integrity_detected),
                    static_cast<unsigned long long>(
                        r.sys.integrity_retried),
                    static_cast<unsigned long long>(
                        r.sys.integrity_recovered),
                    static_cast<unsigned long long>(
                        r.sys.integrity_fatal));
    }
    if (cfg.leak_check)
        std::printf("\nleak check: %s\n", r.leaks.render().c_str());

    // Host-side profiling summary. Deliberately console-only: anything
    // wall-clock dependent must stay out of the deterministic stats
    // JSON.
    {
        const auto &ctrs = r.metrics.counters;
        auto ctr = [&ctrs](const char *k) -> double {
            auto it = ctrs.find(k);
            return it == ctrs.end() ? 0.0
                                    : static_cast<double>(it->second);
        };
        const double sim_s = r.duration_ns * 1e-9;
        std::puts("\n=== profiling ===");
        std::printf("workload %s: %.3f s host\n",
                    load_trace.empty() ? "build" : "load", build_seconds);
        std::printf("host wall time: %.3f s (%.3g host-s per sim-s)\n",
                    r.host_seconds,
                    sim_s > 0.0 ? r.host_seconds / sim_s : 0.0);
        const double ev = ctr("sim.events.executed");
        std::printf("events executed: %.0f (max queue depth %.0f)\n",
                    ev, ctr("sim.events.max_pending"));
        // Every run doubles as a host-performance datapoint: compare
        // this line against bench/host_perf's BENCH_host_perf.json.
        std::printf("event rate: %.3g Mevents/s host\n",
                    r.host_seconds > 0.0
                        ? ev / r.host_seconds * 1e-6 : 0.0);
    }

    if (!stats_json_path.empty()) {
        const std::string json = r.metrics.toJson(r.partial);
        if (stats_json_path == "-") {
            // To stdout, for piping into jq and friends. The JSON is a
            // single line, so it coexists with the report above it.
            std::fwrite(json.data(), 1, json.size(), stdout);
        } else {
            std::FILE *f = std::fopen(stats_json_path.c_str(), "w");
            if (f == nullptr)
                throw SimError("cannot open '" + stats_json_path + "'");
            std::fwrite(json.data(), 1, json.size(), f);
            std::fclose(f);
            std::printf("wrote %zu metrics to %s\n", r.metrics.size(),
                        stats_json_path.c_str());
        }
    }
    if (series) {
        if (!series->flush())
            throw SimError("cannot open '" + stats_series_path + "'");
        if (stats_series_path != "-")
            std::printf("wrote %llu interval snapshots to %s\n",
                        static_cast<unsigned long long>(
                            series->snapshots()),
                        stats_series_path.c_str());
    }
    if (tracer) {
        tracer->writeJson(trace_path);
        std::printf("wrote %llu trace events to %s\n",
                    static_cast<unsigned long long>(tracer->events()),
                    trace_path.c_str());
    }

    if (r.partial) {
        // Counters reflect an arbitrary cut point, so the CSV row and
        // the leak gate are skipped; whatever was flushed above is
        // marked partial.
        std::fprintf(stderr, "emcc_sim: interrupted — partial results "
                             "flushed\n");
        return 5;
    }

    if (leak_strict && !r.leaks.clean()) {
        std::fprintf(stderr, "emcc_sim: leak check failed: %s\n",
                     r.leaks.render().c_str());
        return 4;
    }

    if (!csv_path.empty()) {
        std::FILE *f = std::fopen(csv_path.c_str(), "a");
        if (f == nullptr)
            throw SimError("cannot open '" + csv_path + "'");
        const auto stats = r.toStatSet();
        // Header only for a fresh file.
        std::fseek(f, 0, SEEK_END);
        if (std::ftell(f) == 0) {
            std::fputs("workload,scheme", f);
            for (const auto &[k, v] : stats.all()) {
                (void)v;
                std::fprintf(f, ",%s", k.c_str());
            }
            std::fputc('\n', f);
        }
        std::fprintf(f, "%s,%s", workload.c_str(),
                     schemeName(cfg.scheme));
        for (const auto &[k, v] : stats.all()) {
            (void)k;
            std::fprintf(f, ",%.6g", v);
        }
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("\nappended CSV row to %s\n", csv_path.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Install the stop handlers before any setup work: a SIGINT that
    // lands while the workload is still being built must not kill the
    // process outright — it raises the cooperative flag, the run winds
    // down at its first poll, and partial results are flushed. This
    // deliberately overrides the SIG_IGN a shell gives background jobs.
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);

    // All error paths are recoverable exceptions (never a raw abort):
    // bad input gets a message and a distinct exit code.
    try {
        return runMain(argc, argv);
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "emcc_sim: %s\n", e.what());
        std::fprintf(stderr, "run 'emcc_sim --help' for usage\n");
        return 2;
    } catch (const IntegrityViolation &e) {
        std::fprintf(stderr, "emcc_sim: integrity violation: %s\n",
                     e.what());
        return 3;
    } catch (const SimError &e) {
        std::fprintf(stderr, "emcc_sim: %s\n", e.what());
        return 1;
    }
}
