/**
 * @file
 * Unit tests for the common infrastructure: types/units, RNG (and its
 * jump-ahead), the parallelFor helper, histograms, statistics helpers,
 * and the table printer.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace emcc {
namespace {

TEST(Types, TickConversionsRoundTrip)
{
    EXPECT_EQ(nsToTicks(13.75), Tick{13750});
    EXPECT_EQ(nsToTicks(0.3125), Tick{313});   // rounds
    EXPECT_DOUBLE_EQ(ticksToNs(Tick{23000}), 23.0);
}

TEST(Types, BlockAlignment)
{
    EXPECT_EQ(blockAlign(Addr{0}), Addr{0});
    EXPECT_EQ(blockAlign(Addr{63}), Addr{0});
    EXPECT_EQ(blockAlign(Addr{64}), Addr{64});
    EXPECT_EQ(blockAlign(Addr{130}), Addr{128});
    EXPECT_EQ(blockNumber(Addr{128}), BlockNum{2});
    EXPECT_EQ(blockBase(BlockNum{2}), Addr{128});
}

TEST(Types, UnitsAndLog2)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
    EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(4097));
    EXPECT_FALSE(isPowerOf2(0));
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(13);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.range(3, 5);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, AdvanceEqualsRepeatedNext)
{
    for (const std::uint64_t seed : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
        for (const std::uint64_t n :
             {0ull, 1ull, 2ull, 63ull, 64ull, 65ull, 255ull, 256ull, 257ull,
              1'000'003ull}) {
            SCOPED_TRACE(::testing::Message() << "seed=" << seed
                                              << " n=" << n);
            Rng stepped(seed), jumped(seed);
            for (std::uint64_t i = 0; i < n; ++i)
                stepped.next();
            jumped.advance(n);
            ASSERT_EQ(jumped.state(), stepped.state());
            EXPECT_EQ(jumped.next(), stepped.next());
        }
    }
}

TEST(Rng, AdvanceComposes)
{
    const std::uint64_t steps[] = {0, 1, 77, 4096, 352'321'536,
                                   0xffff'ffff'ffffull};
    for (const std::uint64_t a : steps) {
        for (const std::uint64_t b : steps) {
            Rng split(9), whole(9);
            split.advance(a);
            split.advance(b);
            whole.advance(static_cast<unsigned __int128>(a) + b);
            EXPECT_EQ(split.state(), whole.state()) << a << "+" << b;
        }
    }
}

/** The reference xoshiro256 jump(): equivalent to 2^128 calls to
 *  next(), from the four constants its authors published. */
void
referenceJump(Rng &rng)
{
    static const std::uint64_t kJump[] = {
        0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa,
        0x39abdc4529b1661c};
    std::array<std::uint64_t, 4> acc{};
    for (const std::uint64_t word : kJump) {
        for (int b = 0; b < 64; ++b) {
            if ((word >> b) & 1) {
                const auto s = rng.state();
                for (std::size_t i = 0; i < 4; ++i)
                    acc[i] ^= s[i];
            }
            rng.next();
        }
    }
    rng.setState(acc);
}

TEST(Rng, AdvanceMatchesReferenceJump)
{
    for (const std::uint64_t seed : {3ull, 42ull, 1234567ull}) {
        Rng reference(seed), jumped(seed);
        referenceJump(reference);
        // 2^128 = (2^128 - 1) + 1.
        jumped.advance(~static_cast<unsigned __int128>(0));
        jumped.next();
        EXPECT_EQ(jumped.state(), reference.state()) << seed;
    }
}

TEST(ParallelFor, RunsEveryIndexOnce)
{
    for (const unsigned threads : {1u, 2u, 4u, 7u}) {
        std::vector<int> hits(100, 0);
        parallelFor(hits.size(), threads,
                    [&](std::size_t i) { ++hits[i]; });
        EXPECT_EQ(hits, std::vector<int>(100, 1)) << threads;
    }
}

TEST(ParallelFor, RethrowsLowestFailingIndexAfterJoiningAll)
{
    for (const unsigned threads : {1u, 3u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        constexpr std::size_t kTasks = 16;
        std::vector<std::atomic<bool>> done(kTasks);
        try {
            parallelFor(kTasks, threads, [&](std::size_t i) {
                if (i == 5 || i == 11)
                    throw std::runtime_error("task " + std::to_string(i));
                // Slow tasks: the throw must not abandon them.
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                done[i].store(true);
            });
            FAIL() << "no exception reached the caller";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "task 5");
        }
        // Serially, the first throw stops the loop; with threads, every
        // task has finished (all threads were joined) before the throw.
        for (std::size_t i = 0; i < kTasks; ++i) {
            if (i == 5 || i == 11)
                continue;
            EXPECT_EQ(done[i].load(), threads == 1 ? i < 5 : true) << i;
        }
    }
}

TEST(ParallelFor, ThreadCountFollowsWorkAndSeam)
{
    EXPECT_EQ(parallelThreads(kParallelMinWork - 1), 1u);
    EXPECT_GE(parallelThreads(kParallelMinWork), 1u);
    EXPECT_EQ(parallelThreads(kParallelMinWork, 1), 1u);
    {
        ScopedThreadCount outer(3);
        EXPECT_EQ(parallelThreads(0), 3u);
        EXPECT_EQ(parallelThreads(kParallelMinWork, 2), 3u);
        {
            ScopedThreadCount inner(7);
            EXPECT_EQ(parallelThreads(1), 7u);
        }
        EXPECT_EQ(parallelThreads(1), 3u);
    }
    EXPECT_EQ(parallelThreads(0), 1u);
}

TEST(Histogram, BinningAndMean)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(1.5);
    h.add(1.7);
    h.add(9.9);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(1), 2u);
    EXPECT_EQ(h.binCount(9), 1u);
    EXPECT_NEAR(h.mean(), (0.5 + 1.5 + 1.7 + 9.9) / 4.0, 1e-9);
    EXPECT_DOUBLE_EQ(h.min(), 0.5);
    EXPECT_DOUBLE_EQ(h.max(), 9.9);
}

TEST(Histogram, UnderOverflow)
{
    Histogram h(10.0, 20.0, 5);
    h.add(5.0);
    h.add(25.0);
    h.add(15.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.binCount(2), 1u);
}

TEST(Histogram, Weights)
{
    Histogram h(0.0, 4.0, 4);
    h.add(1.5, 3);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.binCount(1), 3u);
    EXPECT_DOUBLE_EQ(h.binFraction(1), 1.0);
}

TEST(Histogram, PercentileMonotonic)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(i + 0.5);
    EXPECT_LE(h.percentile(10), h.percentile(50));
    EXPECT_LE(h.percentile(50), h.percentile(90));
    EXPECT_NEAR(h.percentile(50), 50.0, 2.0);
}

TEST(Histogram, ResetClears)
{
    Histogram h(0.0, 10.0, 10);
    h.add(5.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, EmptyPercentileIsZero)
{
    Histogram h(0.0, 10.0, 10);
    EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, SingleSample)
{
    Histogram h(0.0, 10.0, 10);
    h.add(3.7);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.mean(), 3.7);
    EXPECT_DOUBLE_EQ(h.min(), 3.7);
    EXPECT_DOUBLE_EQ(h.max(), 3.7);
    // Every percentile of a one-sample distribution lands in its bin.
    EXPECT_LE(h.percentile(1), 4.0);
    EXPECT_GE(h.percentile(99), 3.0);
}

TEST(Histogram, OverflowSamplesCountButStayOutOfBins)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-1.0);
    h.add(100.0);
    h.add(100.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    Count binned = 0;
    for (unsigned i = 0; i < h.numBins(); ++i)
        binned += h.binCount(i);
    EXPECT_EQ(binned, 0u);
    // Out-of-range samples still shape mean/min/max.
    EXPECT_DOUBLE_EQ(h.min(), -1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_NEAR(h.mean(), 199.0 / 3.0, 1e-9);
}

TEST(Histogram, MergeAddsCountsAndExtremes)
{
    Histogram a(0.0, 10.0, 10);
    Histogram b(0.0, 10.0, 10);
    a.add(1.5);
    a.add(12.0);       // overflow
    b.add(2.5);
    b.add(2.6);
    b.add(-3.0);       // underflow
    a.merge(b);
    EXPECT_EQ(a.count(), 5u);
    EXPECT_EQ(a.binCount(1), 1u);
    EXPECT_EQ(a.binCount(2), 2u);
    EXPECT_EQ(a.underflow(), 1u);
    EXPECT_EQ(a.overflow(), 1u);
    EXPECT_DOUBLE_EQ(a.min(), -3.0);
    EXPECT_DOUBLE_EQ(a.max(), 12.0);
    EXPECT_NEAR(a.mean(), (1.5 + 12.0 + 2.5 + 2.6 - 3.0) / 5.0, 1e-9);
}

TEST(Histogram, MergeEmptySidesPreserveExtremes)
{
    Histogram a(0.0, 10.0, 10);
    Histogram b(0.0, 10.0, 10);
    // Empty other: a no-op, even for min/max.
    a.add(4.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.min(), 4.0);
    EXPECT_DOUBLE_EQ(a.max(), 4.0);
    // Empty self: adopts the other's extremes instead of mixing in the
    // empty-state zeros.
    Histogram c(0.0, 10.0, 10);
    c.merge(a);
    EXPECT_EQ(c.count(), 1u);
    EXPECT_DOUBLE_EQ(c.min(), 4.0);
    EXPECT_DOUBLE_EQ(c.max(), 4.0);
}

TEST(HistogramDeathTest, MergeMismatchedBinningPanics)
{
    Histogram a(0.0, 10.0, 10);
    Histogram b(0.0, 20.0, 10);
    Histogram c(0.0, 10.0, 5);
    EXPECT_DEATH(a.merge(b), "mismatched");
    EXPECT_DEATH(a.merge(c), "mismatched");
}

TEST(Stats, AverageBasics)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.add(2.0);
    a.add(4.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.count(), 2u);
    a.add(10.0, 2);
    EXPECT_DOUBLE_EQ(a.mean(), (2.0 + 4.0 + 20.0) / 4.0);
}

TEST(Stats, SafeRatio)
{
    EXPECT_DOUBLE_EQ(safeRatio(1.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(safeRatio(3.0, 2.0), 1.5);
}

TEST(Stats, GeoMean)
{
    EXPECT_DOUBLE_EQ(geoMean({}), 0.0);
    EXPECT_NEAR(geoMean({2.0, 8.0}), 4.0, 1e-9);
    EXPECT_DOUBLE_EQ(geoMean({1.0, 0.0}), 0.0);
}

TEST(Stats, StatSetMerge)
{
    StatSet a, b;
    a.set("x", 1.0);
    b.set("x", 2.0);
    b.set("y", 5.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 5.0);
    EXPECT_DOUBLE_EQ(a.get("missing"), 0.0);
    EXPECT_TRUE(a.has("y"));
    EXPECT_FALSE(a.has("z"));
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"a", "1.00"});
    t.addRow({"longer", "2.50"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("2.50"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::num(1.234, 2), "1.23");
    EXPECT_EQ(Table::pct(0.072, 1), "7.2%");
}

} // namespace
} // namespace emcc
