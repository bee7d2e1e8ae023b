/**
 * @file
 * emcc_hostbench — one repetition of a host-time benchmark workload.
 *
 * Each mode runs the same public call chain as the user-facing tools and
 * takes host-time spans around the calls into each module, from this
 * file only (nothing inside the simulator is instrumented):
 *
 *   sim       as tools/emcc_sim: cachedWorkload -> SecureSystem ->
 *             run / fastForward+run / runSampled -> toJson -> write,
 *             with the ledger, resmon and critpath sinks the CLI
 *             attaches by default.
 *   campaign  as tools/emcc_campaign: CampaignSpec::load ->
 *             CampaignEngine::run -> Journal::aggregate -> write.
 *   prebuild  the traced companion of `campaign`, in a fresh process:
 *             times the grid's serial workload build and probes one
 *             grid run (construction, fast-forward, sinks on/off).
 *   probe     CPU-bound parallel probe: how many threads' worth of
 *             throughput the host actually delivers.
 *   info      build provenance.
 *
 * `sim --traced` additionally times, after the stats file is written,
 * a standalone RMAT graph generation, a standalone fastForward on a
 * fresh system and the same run with every sink detached.
 *
 * Every mode prints one JSON line on stdout. All times are seconds of
 * steady_clock (obs::HostTimer) since main() was entered.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/engine.hh"
#include "campaign/journal.hh"
#include "campaign/spec.hh"
#include "common/error.hh"
#include "obs/profile.hh"
#include "system/experiment.hh"
#include "workloads/graph.hh"

namespace {

using namespace emcc;
using namespace emcc::experiments;

/** Process clock: origin at main() entry. */
obs::HostTimer g_clock;

/** Spans kept in memory and written out with the result line. The
 *  spans of one repetition are its process's; none nest. */
class SpanLog
{
  public:
    /** Run @p fn inside a span named @p name. */
    template <typename F>
    void
    span(const std::string &name, F &&fn)
    {
        const double start = g_clock.seconds();
        fn();
        spans_.push_back({name, start, g_clock.seconds()});
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os.precision(9);
        os << '[';
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? "," : "") << "{\"name\":\"" << s.name
               << "\",\"start\":" << s.start << ",\"end\":" << s.end
               << '}';
        }
        os << ']';
        return os.str();
    }

  private:
    struct Span
    {
        std::string name;
        double start;
        double end;
    };
    std::vector<Span> spans_;
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

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

void
writeFile(const std::string &path, const std::string &data)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        throw SimError("cannot open '" + path + "'");
    std::fwrite(data.data(), 1, data.size(), f);
    std::fclose(f);
}

/** The sinks emcc_sim attaches when given no --no-* flag. */
struct DefaultSinks
{
    obs::LatencyLedger ledger;
    obs::ResourceMonitor resmon;
    obs::CritPathAnalyzer critpath;

    void
    attach(Simulator &sim)
    {
        sim.setLedger(&ledger);
        sim.setResMon(&resmon);
        sim.setCritPath(&critpath);
    }
};

/** The simulate call, exactly as runTiming() dispatches it. */
void
simulate(SecureSystem &sys, const BenchScale &scale, Count ffwd,
         const SampleSpec &sample)
{
    if (sample.enabled()) {
        sys.runSampled(sample);
    } else {
        if (ffwd > 0)
            sys.fastForward(ffwd);
        sys.run(scale.warmup_instructions, scale.measure_instructions);
    }
}

/** Built-in optimisation/sanitizer state; timing a debug or sanitized
 *  build would measure the instrumentation, not the simulator. */
bool
timingBuild()
{
#ifdef NDEBUG
    return HOSTBENCH_SANITIZED == 0;
#else
    return false;
#endif
}

int
modeInfo()
{
    std::printf("{\"build_type\":\"%s\",\"ndebug\":%s,\"sanitized\":%s,"
                "\"compiler\":\"%s\",\"timing_build\":%s}\n",
                HOSTBENCH_BUILD_TYPE,
#ifdef NDEBUG
                "true",
#else
                "false",
#endif
                HOSTBENCH_SANITIZED ? "true" : "false", HOSTBENCH_COMPILER,
                timingBuild() ? "true" : "false");
    return 0;
}

/** Fixed CPU-bound work per thread (no memory traffic). */
std::uint64_t
spin(std::uint64_t iters, std::uint64_t seed)
{
    std::uint64_t x = seed | 1;
    for (std::uint64_t i = 0; i < iters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

int
modeProbe(int argc, char **argv)
{
    unsigned threads = 1;
    std::uint64_t iters = 200'000'000;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        if (arg == "--threads")
            threads = static_cast<unsigned>(parseInt(arg, argv[i + 1]));
        else if (arg == "--iters")
            iters = static_cast<std::uint64_t>(parseInt(arg, argv[i + 1]));
        else
            throw ConfigError("unknown argument '" + arg + "'");
    }
    std::atomic<std::uint64_t> sink{0};
    auto wave = [&](unsigned n) {
        obs::HostTimer t;
        std::vector<std::thread> pool;
        for (unsigned k = 0; k < n; ++k)
            pool.emplace_back([&, k] { sink += spin(iters, k + 1); });
        for (std::thread &th : pool)
            th.join();
        return t.seconds();
    };
    const double t1 = wave(1);
    const double tn = wave(threads);
    std::printf("{\"threads\":%u,\"t1_s\":%.6f,\"tn_s\":%.6f,"
                "\"speedup\":%.4f}\n",
                threads, t1, tn, static_cast<double>(threads) * t1 / tn);
    return 0;
}

/** `sim`: one emcc_sim-equivalent run. Accepts the emcc_sim flags the
 *  benchmark workloads use, with emcc_sim's defaults and meaning. */
int
modeSim(int argc, char **argv)
{
    std::string workload = "BFS";
    std::string stats_json_path;
    bool traced = false;
    Count ffwd = 0;
    SampleSpec sample;
    sample.warm = 10'000;
    sample.measure = 30'000;
    SystemConfig cfg = paperConfig(Scheme::Emcc);
    BenchScale scale = BenchScale::fromEnv();

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                throw ConfigError("missing value for " + arg);
            return argv[++i];
        };
        auto nextInt = [&] { return parseInt(arg, next()); };
        if (arg == "--workload") {
            workload = next();
        } else if (arg == "--scheme") {
            cfg.scheme = parseScheme(next());
        } else if (arg == "--cores") {
            cfg.cores = static_cast<unsigned>(nextInt());
            scale.workload.cores = cfg.cores;
        } else if (arg == "--warmup") {
            scale.warmup_instructions = static_cast<Count>(nextInt());
        } else if (arg == "--measure") {
            scale.measure_instructions = static_cast<Count>(nextInt());
        } else if (arg == "--trace-len") {
            scale.workload.trace_len = static_cast<std::size_t>(nextInt());
        } else if (arg == "--footprint-scale") {
            scale.workload.footprint_scale = parseFloat(arg, next());
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
        } else if (arg == "--seed") {
            cfg.seed = static_cast<std::uint64_t>(nextInt());
            scale.workload.seed = cfg.seed;
        } else if (arg == "--stats-json") {
            stats_json_path = next();
        } else if (arg == "--traced") {
            traced = true;
        } else {
            throw ConfigError("unknown argument '" + arg + "'");
        }
    }
    if (stats_json_path.empty())
        throw ConfigError("--stats-json is required");
    cfg.validate();
    sample.ffwd_refs = ffwd;

    SpanLog log;
    const WorkloadSet *set = nullptr;
    log.span("workloads.build",
             [&] { set = &cachedWorkload(workload, scale.workload); });

    // Same construction order as runTiming(): sinks attach to the
    // Simulator before the system binds them.
    const std::atomic<bool> stop{false};
    DefaultSinks sinks;
    Simulator sim;
    sinks.attach(sim);
    sim.setStopFlag(&stop);
    std::unique_ptr<SecureSystem> sys;
    log.span("system.construct", [&] {
        sys = std::make_unique<SecureSystem>(sim, cfg, set);
    });
    const double setup_s = g_clock.seconds();
    log.span("system.run", [&] { simulate(*sys, scale, ffwd, sample); });
    const bool partial = sys->results().partial;
    log.span("obs.emit", [&] {
        writeFile(stats_json_path, sys->results().metrics.toJson(partial));
    });
    const double wall_s = g_clock.seconds();
    const double rss_mb = peakRssMb();
    sys.reset();

    Count ffwd_refs = 0;
    if (traced) {
        // Timed on every workload: a non-graph workload's build makes no
        // graph, so there this is the generator alone at the run's
        // (unused) graph parameters.
        log.span("workloads.graph_gen", [&] {
            Rng rng(scale.workload.seed);
            const CsrGraph g(scale.workload.graph_vertices,
                             scale.workload.graph_degree, rng);
            if (g.numEdges() == 0)
                throw SimError("empty graph");
        });
        {
            DefaultSinks s2;
            Simulator sim2;
            s2.attach(sim2);
            sim2.setStopFlag(&stop);
            SecureSystem probe(sim2, cfg, set);
            const Count n = std::min<Count>(scale.workload.trace_len,
                                            400'000);
            log.span("system.ffwd", [&] { probe.fastForward(n); });
            ffwd_refs = n * cfg.cores;
        }
        {
            Simulator sim3;
            sim3.setStopFlag(&stop);
            SecureSystem detached(sim3, cfg, set);
            log.span("system.run_detached",
                     [&] { simulate(detached, scale, ffwd, sample); });
        }
    }

    std::printf("{\"mode\":\"sim\",\"ok\":%s,\"wall_s\":%.9f,"
                "\"setup_s\":%.9f,\"peak_rss_mb\":%.3f,"
                "\"refs_built\":%zu,\"graph_workload\":%s,"
                "\"ffwd_refs\":%llu,\"spans\":%s}\n",
                partial ? "false" : "true", wall_s, setup_s, rss_mb,
                set->totalRefs(),
                isGraphWorkload(canonicalWorkloadName(workload)) ? "true"
                                                                : "false",
                static_cast<unsigned long long>(ffwd_refs),
                log.json().c_str());
    return partial ? 1 : 0;
}

/**
 * Watches the campaign journal for its first run record and notes when
 * it appeared. That record's append time minus its host_ms is when the
 * first grid run started, i.e. the end of the engine's set-up (journal
 * open plus the serial workload prebuild). Polling stops at the first
 * record, before the pool is busy.
 */
class FirstRecordWatch
{
  public:
    explicit FirstRecordWatch(std::string path)
        : path_(std::move(path)), thread_([this] { loop(); })
    {
    }

    ~FirstRecordWatch() { stop(); }

    FirstRecordWatch(const FirstRecordWatch &) = delete;
    FirstRecordWatch &operator=(const FirstRecordWatch &) = delete;

    void
    stop()
    {
        done_ = true;
        if (thread_.joinable())
            thread_.join();
        // A batch shorter than one poll (or a starved poller) can finish
        // unseen: then the record's time is only known to be <= now.
        if (seen_at_ < 0.0)
            scan();
    }

    /** Seconds since main() when the first run started, or -1. Valid
     *  after stop(). */
    double
    firstRunStart() const
    {
        return seen_at_ < 0.0 ? -1.0 : seen_at_ - host_ms_ / 1e3;
    }

  private:
    /** Look for a complete first record; note when it was seen. */
    bool
    scan()
    {
        std::ifstream in(path_);
        std::string header, line;
        if (!(in && std::getline(in, header) && std::getline(in, line)) ||
            in.eof())
            return false;
        const double at = g_clock.seconds();
        const std::size_t k = line.find("\"host_ms\":");
        if (k != std::string::npos) {
            host_ms_ = std::strtod(line.c_str() + k + 10, nullptr);
            seen_at_ = at;
        }
        return true;
    }

    void
    loop()
    {
        while (!done_ && !scan())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    std::string path_;
    std::atomic<bool> done_{false};
    double seen_at_ = -1.0;
    double host_ms_ = 0.0;
    std::thread thread_;   // last: loop() reads the members above
};

/** `campaign`: one emcc_campaign-equivalent batch. */
int
modeCampaign(int argc, char **argv)
{
    std::string spec_path, aggregate_path;
    campaign::EngineOptions opts;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                throw ConfigError("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--spec")
            spec_path = next();
        else if (arg == "--jobs")
            opts.jobs = static_cast<unsigned>(parseInt(arg, next()));
        else if (arg == "--journal")
            opts.journal_path = next();
        else if (arg == "--aggregate")
            aggregate_path = next();
        else if (arg == "--no-resume")
            opts.resume = false;
        else if (arg == "--no-fsync")
            opts.fsync_journal = false;
        else if (arg == "--quiet")
            opts.quiet = true;
        else
            throw ConfigError("unknown argument '" + arg + "'");
    }
    if (spec_path.empty() || aggregate_path.empty() ||
        opts.journal_path.empty() || opts.resume)
        throw ConfigError("campaign needs --spec, --aggregate, --journal "
                          "and --no-resume");

    SpanLog log;
    std::atomic<bool> drain{false}, cancel{false};
    opts.drain = &drain;
    opts.cancel = &cancel;
    campaign::CampaignSpec spec = campaign::CampaignSpec::load(spec_path);
    campaign::CampaignEngine engine(std::move(spec), opts);

    std::remove(opts.journal_path.c_str());
    FirstRecordWatch watch(opts.journal_path);
    campaign::CampaignSummary sum;
    log.span("campaign.engine_run", [&] { sum = engine.run(); });
    watch.stop();
    log.span("obs.emit", [&] {
        writeFile(aggregate_path,
                  campaign::Journal::aggregate(engine.terminalRecords()));
    });
    const double wall_s = g_clock.seconds();
    const bool ok = sum.complete() && sum.failed == 0 && sum.timeout == 0;
    std::printf("{\"mode\":\"campaign\",\"ok\":%s,\"wall_s\":%.9f,"
                "\"setup_s\":%.9f,\"peak_rss_mb\":%.3f,\"jobs\":%u,"
                "\"runs_total\":%llu,\"runs_ok\":%llu,\"spans\":%s}\n",
                ok ? "true" : "false", wall_s, watch.firstRunStart(),
                peakRssMb(), opts.jobs,
                static_cast<unsigned long long>(sum.total),
                static_cast<unsigned long long>(sum.ok), log.json().c_str());
    return ok ? 0 : 1;
}

/** `prebuild`: the campaign's per-layer probes, in a fresh process. */
int
modePrebuild(int argc, char **argv)
{
    if (argc != 4 || std::string(argv[2]) != "--spec")
        throw ConfigError("usage: prebuild --spec FILE");
    const campaign::CampaignSpec spec =
        campaign::CampaignSpec::load(argv[3]);
    const std::vector<campaign::RunDesc> runs = spec.expand();
    if (runs.empty() || runs[0].kind != campaign::RunDesc::Kind::Sim)
        throw ConfigError("prebuild needs a grid spec");

    SpanLog log;
    // The serial build CampaignEngine::prebuildWorkloads does, call for
    // call; repeated keys are memo hits.
    std::set<const WorkloadSet *> built;
    std::size_t refs = 0;
    for (const campaign::RunDesc &r : runs) {
        const WorkloadSet *w = nullptr;
        log.span("workloads.build",
                 [&] { w = &cachedWorkload(r.workload, r.scale.workload); });
        if (built.insert(w).second)
            refs += w->totalRefs();
    }
    std::set<std::string> graphs;
    for (const campaign::RunDesc &r : runs) {
        const WorkloadParams &p = r.scale.workload;
        if (!isGraphWorkload(canonicalWorkloadName(r.workload)) ||
            !graphs.insert(std::to_string(p.graph_vertices) + "/" +
                           std::to_string(p.graph_degree) + "/" +
                           std::to_string(p.seed))
                 .second)
            continue;
        log.span("workloads.graph_gen", [&] {
            Rng rng(p.seed);
            const CsrGraph g(p.graph_vertices, p.graph_degree, rng);
            if (g.numEdges() == 0)
                throw SimError("empty graph");
        });
    }

    // Probes on the first grid run. The engine attaches no sinks, so
    // construction and fast-forward run detached, as in the batch.
    const campaign::RunDesc &r0 = runs[0];
    const WorkloadSet &w0 = cachedWorkload(r0.workload, r0.scale.workload);
    const std::atomic<bool> stop{false};
    const Count n = std::min<Count>(r0.scale.workload.trace_len, 400'000);
    {
        Simulator sim;
        sim.setStopFlag(&stop);
        std::unique_ptr<SecureSystem> sys;
        log.span("system.construct", [&] {
            sys = std::make_unique<SecureSystem>(sim, r0.cfg, &w0);
        });
        log.span("system.ffwd", [&] { sys->fastForward(n); });
    }
    {
        DefaultSinks sinks;
        Simulator sim;
        sinks.attach(sim);
        sim.setStopFlag(&stop);
        SecureSystem sys(sim, r0.cfg, &w0);
        log.span("system.run",
                 [&] { simulate(sys, r0.scale, r0.ffwd, r0.sample); });
    }
    {
        Simulator sim;
        sim.setStopFlag(&stop);
        SecureSystem sys(sim, r0.cfg, &w0);
        log.span("system.run_detached",
                 [&] { simulate(sys, r0.scale, r0.ffwd, r0.sample); });
    }
    std::printf("{\"mode\":\"prebuild\",\"ok\":true,\"refs_built\":%zu,"
                "\"ffwd_refs\":%llu,\"spans\":%s}\n",
                refs, static_cast<unsigned long long>(n * r0.cfg.cores),
                log.json().c_str());
    return 0;
}

int
runMain(int argc, char **argv)
{
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "info")
        return modeInfo();
    if (mode == "probe")
        return modeProbe(argc, argv);
    if (mode != "sim" && mode != "campaign" && mode != "prebuild")
        throw ConfigError("usage: emcc_hostbench "
                          "sim|campaign|prebuild|probe|info [flags]");
    if (!timingBuild()) {
        std::fprintf(stderr, "emcc_hostbench: refusing to time a %s "
                             "build (needs an optimised, unsanitized "
                             "Release build)\n",
                     HOSTBENCH_SANITIZED ? "sanitized" : "debug");
        return 2;
    }
    if (mode == "sim")
        return modeSim(argc, argv);
    if (mode == "campaign")
        return modeCampaign(argc, argv);
    return modePrebuild(argc, argv);
}

} // namespace

int
main(int argc, char **argv)
{
    g_clock.restart();
    try {
        return runMain(argc, argv);
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "emcc_hostbench: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "emcc_hostbench: %s\n", e.what());
        return 1;
    }
}
