/**
 * @file
 * Fork-join helper for the deterministic, data-parallel parts of setup
 * (workload construction).
 *
 * parallelFor() runs fn(i) for every i in [0, count) on std::threads it
 * starts and joins before returning; nothing is detached and nothing
 * outlives the call. Callers only hand it tasks that write disjoint
 * output, so what they build does not depend on the thread count or on
 * scheduling, and there is nothing for a user to configure: the count
 * comes from std::thread::hardware_concurrency(). Tests pin it with
 * ScopedThreadCount to prove that independence.
 */

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace emcc {

/** Work (elementary steps: RNG draws, edges, trace references) below
 *  which parallelThreads() answers 1, because starting threads would
 *  cost about as much as the work itself. */
inline constexpr std::uint64_t kParallelMinWork = std::uint64_t{1} << 20;

/**
 * Threads to use for @p work elementary steps: 1 below
 * kParallelMinWork, otherwise hardware_concurrency() capped at @p cap.
 * A live ScopedThreadCount overrides both the threshold and the cap.
 */
unsigned parallelThreads(std::uint64_t work, unsigned cap = ~0u);

/** Test-only seam: while alive, parallelThreads() answers exactly
 *  @p threads. Not for production code: output never depends on it. */
class ScopedThreadCount
{
  public:
    explicit ScopedThreadCount(unsigned threads);
    ~ScopedThreadCount();
    ScopedThreadCount(const ScopedThreadCount &) = delete;
    ScopedThreadCount &operator=(const ScopedThreadCount &) = delete;

  private:
    unsigned prev_;
};

/**
 * Run fn(i) for each i in [0, count) on min(count, threads) threads,
 * the calling thread among them. Tasks are claimed in index order.
 *
 * With one thread the tasks run in order and the first exception
 * propagates at once. Otherwise every task runs, every thread is
 * joined, and then the exception of the lowest failing index is
 * rethrown: the same one the serial order would have thrown. If the
 * system refuses to start a thread, the threads already running finish
 * the work.
 */
template <typename Fn>
void
parallelFor(std::size_t count, unsigned threads, Fn &&fn)
{
    const std::size_t workers = std::min<std::size_t>(count, threads);
    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    std::vector<std::exception_ptr> errors(count);
    std::atomic<std::size_t> next{0};
    auto drain = [&] {
        for (std::size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1)) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    try {
        for (std::size_t t = 1; t < workers; ++t)
            pool.emplace_back(drain);
    } catch (const std::system_error &) {
        // Out of threads: the ones started, and this one, do the rest.
    }
    drain();
    for (std::thread &t : pool)
        t.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace emcc
