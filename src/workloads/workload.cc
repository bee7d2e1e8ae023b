#include "workloads/workload.hh"

#include <algorithm>
#include <cctype>

#include "common/log.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "workloads/graph.hh"
#include "workloads/graph_kernels.hh"
#include "workloads/synthetic.hh"

namespace emcc {

const std::vector<std::string> &
irregularWorkloads()
{
    static const std::vector<std::string> kNames = {
        "pageRank", "graphColoring", "connectedComp", "degreeCentr",
        "DFS", "BFS", "triangleCount", "shortestPath",
        "canneal", "omnetpp", "mcf",
    };
    return kNames;
}

const std::vector<std::string> &
regularWorkloads()
{
    static const std::vector<std::string> kNames = {
        "blackscholes", "bodytrack", "ferret", "freqmine",
        "streamcluster", "x264", "facesim", "fluidanimate",
        "bwaves_s", "exchange2_s", "perlbench_s", "cactuBSSN_s",
        "deepsjeng_s", "leela_s", "x264_s",
    };
    return kNames;
}

std::string
canonicalWorkloadName(const std::string &name)
{
    auto lower = [](const std::string &s) {
        std::string out = s;
        std::transform(out.begin(), out.end(), out.begin(),
                       [](unsigned char c) {
                           return static_cast<char>(std::tolower(c));
                       });
        return out;
    };
    const std::string want = lower(name);
    for (const auto *names : {&irregularWorkloads(), &regularWorkloads()}) {
        for (const auto &n : *names) {
            if (lower(n) == want)
                return n;
        }
    }
    return name;
}

bool
isGraphWorkload(const std::string &name)
{
    static const std::vector<std::string> kGraph = {
        "pageRank", "graphColoring", "connectedComp", "degreeCentr",
        "DFS", "BFS", "triangleCount", "shortestPath",
    };
    return std::find(kGraph.begin(), kGraph.end(), name) != kGraph.end();
}

namespace {

using KernelFn = void (*)(const CsrGraph &, kernels::ThreadSlice, Rng &,
                          TraceRecorder &);

KernelFn
graphKernel(const std::string &name)
{
    if (name == "pageRank") return kernels::pageRank;
    if (name == "graphColoring") return kernels::graphColoring;
    if (name == "connectedComp") return kernels::connectedComp;
    if (name == "degreeCentr") return kernels::degreeCentr;
    if (name == "DFS") return kernels::dfs;
    if (name == "BFS") return kernels::bfs;
    if (name == "triangleCount") return kernels::triangleCount;
    if (name == "shortestPath") return kernels::shortestPath;
    return nullptr;
}

WorkloadSet
buildGraph(const std::string &name, const WorkloadParams &p)
{
    WorkloadSet set;
    set.name = name;
    set.shared_address_space = true;

    // Graph footprint is governed by graph_vertices directly;
    // footprint_scale only shrinks the synthetic (non-graph) workloads.
    Rng graph_rng(p.seed);
    CsrGraph g(p.graph_vertices, p.graph_degree, graph_rng);
    set.footprint = g.footprint(/*num_props=*/2);

    // One task per core: each has its own Rng seed and TraceRecorder,
    // and the graph is read-only, so the traces do not depend on the
    // thread count.
    KernelFn fn = graphKernel(name);
    set.per_core.resize(p.cores);
    const unsigned threads =
        parallelThreads(std::uint64_t{p.cores} * p.trace_len);
    parallelFor(p.cores, threads, [&](std::size_t c) {
        Rng rng(p.seed * 7919 + c + 1);
        TraceRecorder rec(p.trace_len);
        fn(g, kernels::ThreadSlice{static_cast<unsigned>(c), p.cores}, rng,
           rec);
        set.per_core[c] = rec.take();
    });
    return set;
}

WorkloadSet
buildSynthetic(const std::string &name, const WorkloadParams &p)
{
    WorkloadSet set;
    set.name = name;
    set.shared_address_space = false;

    auto scaled = [&](std::uint64_t bytes) {
        const auto s = static_cast<std::uint64_t>(
            static_cast<double>(bytes) * p.footprint_scale);
        return std::max<std::uint64_t>(s, 64 * kBlockBytes);
    };

    // Serial on purpose, unlike buildGraph: each core's generator
    // allocates and walks its own multi-MB structures, so on a host with
    // fewer free cores than threads, time-slicing them costs more than
    // the ~0.1 s a parallel build saves (mcf at 4 x 1.5M refs: 0.15-0.20
    // -> 0.23-0.25 s with 4 threads on one CPU).
    for (unsigned c = 0; c < p.cores; ++c) {
        Rng rng(p.seed * 104729 + c + 1);
        TraceRecorder rec(p.trace_len);
        if (name == "canneal") {
            synth::canneal(scaled(96_MiB), rng, rec);
            set.footprint = Addr{scaled(96_MiB)};
        } else if (name == "omnetpp") {
            synth::omnetpp(scaled(64_MiB), rng, rec);
            set.footprint = Addr{scaled(64_MiB)};
        } else if (name == "mcf") {
            synth::mcf(scaled(128_MiB), rng, rec);
            set.footprint = Addr{scaled(128_MiB)};
        } else {
            auto mix = synth::regularMix(name);
            mix.footprint_bytes = scaled(mix.footprint_bytes);
            mix.hot_bytes = static_cast<std::uint64_t>(
                static_cast<double>(mix.hot_bytes) * p.footprint_scale);
            synth::pattern(mix, rng, rec);
            set.footprint = Addr{mix.footprint_bytes};
        }
        set.per_core.push_back(rec.take());
    }
    return set;
}

} // namespace

WorkloadSet
buildWorkload(const std::string &name, const WorkloadParams &p)
{
    fatal_if(p.cores == 0, "workload with zero cores");
    const std::string canon = canonicalWorkloadName(name);
    if (isGraphWorkload(canon))
        return buildGraph(canon, p);
    return buildSynthetic(canon, p);
}

} // namespace emcc
