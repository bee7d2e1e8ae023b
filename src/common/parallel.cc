#include "common/parallel.hh"

namespace emcc {

namespace {

/** The ScopedThreadCount in force, or 0 for none. */
std::atomic<unsigned> g_forced_threads{0};

} // namespace

unsigned
parallelThreads(std::uint64_t work, unsigned cap)
{
    if (const unsigned forced = g_forced_threads.load(); forced > 0)
        return forced;
    if (work < kParallelMinWork)
        return 1;
    static const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    return std::max(1u, std::min(hw, cap));
}

ScopedThreadCount::ScopedThreadCount(unsigned threads)
    : prev_(g_forced_threads.exchange(std::max(1u, threads)))
{
}

ScopedThreadCount::~ScopedThreadCount() { g_forced_threads.store(prev_); }

} // namespace emcc
