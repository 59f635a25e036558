/**
 * @file
 * Unit tests for the support substrate: logging, deterministic
 * random numbers, statistics, strings, table rendering, the
 * durable-directory layer and the little-endian codec.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "obs/metrics.hh"
#include "support/durable_dir.hh"
#include "support/le_codec.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/stats.hh"
#include "support/strings.hh"
#include "support/table.hh"
#include "support/thread_pool.hh"
#include "support/timer.hh"

namespace branchlab
{
namespace
{

// ---------------------------------------------------------------------
// Logging.
// ---------------------------------------------------------------------

TEST(Logging, PanicThrowsLogicFailure)
{
    EXPECT_THROW(blab_panic("boom ", 42), LogicFailure);
}

TEST(Logging, FatalThrowsConfigFailure)
{
    EXPECT_THROW(blab_fatal("bad config"), ConfigFailure);
}

TEST(Logging, PanicMessageCarriesTextAndLocation)
{
    try {
        blab_panic("unique-marker-", 7);
        FAIL() << "expected a throw";
    } catch (const LogicFailure &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("unique-marker-7"), std::string::npos);
        EXPECT_NE(what.find("test_support.cc"), std::string::npos);
    }
}

TEST(Logging, AssertPassesOnTrue)
{
    EXPECT_NO_THROW(blab_assert(1 + 1 == 2, "fine"));
}

TEST(Logging, AssertThrowsOnFalseWithConditionText)
{
    try {
        blab_assert(2 + 2 == 5, "math broke");
        FAIL() << "expected a throw";
    } catch (const LogicFailure &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
        EXPECT_NE(what.find("math broke"), std::string::npos);
    }
}

TEST(Logging, WarnIncrementsCounter)
{
    resetWarningCount();
    blab_warn("something odd");
    blab_warn("odder still");
    EXPECT_EQ(warningCount(), 2u);
    resetWarningCount();
}

// ---------------------------------------------------------------------
// Rng.
// ---------------------------------------------------------------------

TEST(Rng, EqualSeedsGiveEqualSequences)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInBounds)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowOneIsAlwaysZero)
{
    Rng rng(9);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(Rng, NextInRangeCoversInclusiveEnds)
{
    Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextInRange(-2, 2));
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_EQ(*seen.begin(), -2);
    EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, NextBoolRespectsExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, NextBoolApproximatesProbability)
{
    Rng rng(19);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, PickWeightedIgnoresZeroWeights)
{
    Rng rng(23);
    const std::vector<double> weights = {0.0, 1.0, 0.0};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.pickWeighted(weights), 1u);
}

TEST(Rng, PickWeightedFollowsWeights)
{
    Rng rng(29);
    const std::vector<double> weights = {1.0, 3.0};
    int ones = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        ones += rng.pickWeighted(weights) == 1 ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(ones) / trials, 0.75, 0.02);
}

TEST(Rng, ForkIsIndependentOfParentContinuation)
{
    Rng parent(31);
    Rng fork = parent.fork();
    // The fork must not replay the parent's stream.
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += fork.next() == parent.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(37);
    std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> shuffled = items;
    rng.shuffle(shuffled);
    std::multiset<int> a(items.begin(), items.end());
    std::multiset<int> b(shuffled.begin(), shuffled.end());
    EXPECT_EQ(a, b);
}

TEST(Rng, PickReturnsOnlyListedElements)
{
    Rng rng(41);
    const std::vector<int> items = {10, 20, 30};
    std::set<int> seen;
    for (int i = 0; i < 300; ++i)
        seen.insert(rng.pick(items));
    EXPECT_EQ(seen, (std::set<int>{10, 20, 30}));
}

TEST(Rng, HashStringIsStableAndDiscriminates)
{
    EXPECT_EQ(hashString("wc"), hashString("wc"));
    EXPECT_NE(hashString("wc"), hashString("cw"));
    EXPECT_NE(hashString(""), hashString("a"));
}

// ---------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------

TEST(Ratio, EmptyRatioIsZero)
{
    Ratio ratio;
    EXPECT_EQ(ratio.ratio(), 0.0);
    EXPECT_EQ(ratio.total(), 0u);
}

TEST(Ratio, CountsHitsAndTotal)
{
    Ratio ratio;
    ratio.record(true);
    ratio.record(false);
    ratio.record(true);
    EXPECT_EQ(ratio.hits(), 2u);
    EXPECT_EQ(ratio.total(), 3u);
    EXPECT_NEAR(ratio.ratio(), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(ratio.complement(), 1.0 / 3.0, 1e-12);
}

TEST(Ratio, MergeAddsBothSides)
{
    Ratio a, b;
    a.record(true);
    b.record(false);
    b.record(true);
    a.merge(b);
    EXPECT_EQ(a.hits(), 2u);
    EXPECT_EQ(a.total(), 3u);
}

TEST(RunningStat, MatchesClosedFormOnKnownData)
{
    RunningStat stat;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stat.addSample(v);
    EXPECT_EQ(stat.count(), 8u);
    EXPECT_NEAR(stat.mean(), 5.0, 1e-12);
    EXPECT_NEAR(stat.variance(), 4.0, 1e-12);
    EXPECT_NEAR(stat.stddev(), 2.0, 1e-12);
    EXPECT_EQ(stat.min(), 2.0);
    EXPECT_EQ(stat.max(), 9.0);
    EXPECT_NEAR(stat.sum(), 40.0, 1e-12);
}

TEST(RunningStat, SampleStddevUsesBesselCorrection)
{
    RunningStat stat;
    stat.addSample(1.0);
    stat.addSample(3.0);
    EXPECT_NEAR(stat.sampleStddev(), std::sqrt(2.0), 1e-12);
}

TEST(RunningStat, SingleSampleHasZeroVariance)
{
    RunningStat stat;
    stat.addSample(42.0);
    EXPECT_EQ(stat.variance(), 0.0);
    EXPECT_EQ(stat.sampleStddev(), 0.0);
    EXPECT_EQ(stat.mean(), 42.0);
}

TEST(RunningStat, ResetClearsEverything)
{
    RunningStat stat;
    stat.addSample(5.0);
    stat.reset();
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_EQ(stat.mean(), 0.0);
}

TEST(Histogram, BucketsAndBoundsBehave)
{
    Histogram hist(0, 99, 10);
    hist.addSample(0);
    hist.addSample(5);
    hist.addSample(10);
    hist.addSample(99);
    hist.addSample(-1);
    hist.addSample(100);
    EXPECT_EQ(hist.numBuckets(), 10u);
    EXPECT_EQ(hist.bucketCount(0), 2u);
    EXPECT_EQ(hist.bucketCount(1), 1u);
    EXPECT_EQ(hist.bucketCount(9), 1u);
    EXPECT_EQ(hist.underflow(), 1u);
    EXPECT_EQ(hist.overflow(), 1u);
    EXPECT_EQ(hist.totalSamples(), 6u);
}

TEST(Histogram, WeightedSamplesAndMean)
{
    Histogram hist(0, 9, 2);
    hist.addSample(2, 3);
    hist.addSample(8, 1);
    EXPECT_EQ(hist.totalSamples(), 4u);
    EXPECT_NEAR(hist.meanSample(), (2.0 * 3 + 8.0) / 4.0, 1e-12);
}

TEST(Histogram, BucketLowIsInclusiveLowerBound)
{
    Histogram hist(10, 29, 2);
    EXPECT_EQ(hist.bucketLow(0), 10);
    EXPECT_EQ(hist.bucketLow(1), 20);
}

TEST(StatRegistry, SetAndGetScalar)
{
    StatRegistry registry;
    registry.setScalar("vm.instructions", 100.0);
    EXPECT_TRUE(registry.has("vm.instructions"));
    EXPECT_EQ(registry.scalar("vm.instructions"), 100.0);
    EXPECT_FALSE(registry.has("missing"));
    EXPECT_THROW(registry.scalar("missing"), ConfigFailure);
}

TEST(StatRegistry, DumpIsSorted)
{
    StatRegistry registry;
    registry.setScalar("b", 2);
    registry.setScalar("a", 1);
    std::ostringstream os;
    registry.dump(os);
    EXPECT_EQ(os.str(), "a 1\nb 2\n");
}

TEST(Formatting, PercentAndFixed)
{
    EXPECT_EQ(formatPercent(0.915), "91.5%");
    EXPECT_EQ(formatPercent(0.915, 0), "92%");
    EXPECT_EQ(formatFixed(1.234, 2), "1.23");
    EXPECT_EQ(formatFixed(1.0, 3), "1.000");
}

// ---------------------------------------------------------------------
// Strings.
// ---------------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields)
{
    const auto fields = splitString("a,,b,", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[2], "b");
    EXPECT_EQ(fields[3], "");
}

TEST(Strings, SplitLinesDropsTrailingNewlineArtifact)
{
    const auto lines = splitLines("x\ny\n");
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "x");
    EXPECT_EQ(lines[1], "y");
    EXPECT_EQ(splitLines("").size(), 1u);
    EXPECT_EQ(splitLines("a\n\nb").size(), 3u);
}

TEST(Strings, JoinRoundTripsSplit)
{
    const std::string text = "one,two,three";
    EXPECT_EQ(joinStrings(splitString(text, ','), ","), text);
}

TEST(Strings, TrimRemovesAllWhitespaceKinds)
{
    EXPECT_EQ(trimString(" \t\r\n abc \n"), "abc");
    EXPECT_EQ(trimString("   "), "");
    EXPECT_EQ(trimString("x"), "x");
}

TEST(Strings, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("branchlab", "branch"));
    EXPECT_FALSE(startsWith("lab", "branch"));
    EXPECT_TRUE(endsWith("branchlab", "lab"));
    EXPECT_FALSE(endsWith("la", "lab"));
    EXPECT_TRUE(startsWith("x", ""));
    EXPECT_TRUE(endsWith("x", ""));
}

TEST(Strings, Padding)
{
    EXPECT_EQ(padLeft("7", 3), "  7");
    EXPECT_EQ(padRight("7", 3), "7  ");
    EXPECT_EQ(padLeft("long", 2), "long");
}

TEST(Strings, ReplaceAllHandlesAdjacentAndGrowth)
{
    EXPECT_EQ(replaceAll("aaa", "a", "bb"), "bbbbbb");
    EXPECT_EQ(replaceAll("none", "x", "y"), "none");
    EXPECT_EQ(replaceAll("ab", "ab", ""), "");
}

// ---------------------------------------------------------------------
// TextTable.
// ---------------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns)
{
    TextTable table({"Name", "Value"});
    table.addRow({"a", "1"});
    table.addRow({"long-name", "22"});
    const std::string out = table.toString();
    EXPECT_NE(out.find("Name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    // First column left-aligned, second right-aligned.
    EXPECT_NE(out.find("a         "), std::string::npos);
    EXPECT_NE(out.find("    1"), std::string::npos);
}

TEST(TextTable, SetAlignFlipsColumnSides)
{
    TextTable table({"Left", "Flip"});
    table.setAlign(1, TextTable::Align::Left);
    table.addRow({"a", "b"});
    const std::string out = table.toString();
    // With column 1 forced Left, the cell pads on the right.
    EXPECT_NE(out.find("b   "), std::string::npos);
    EXPECT_THROW(table.setAlign(9, TextTable::Align::Left),
                 LogicFailure);
}

TEST(TextTable, RowArityIsEnforced)
{
    TextTable table({"A", "B"});
    EXPECT_THROW(table.addRow({"only-one"}), LogicFailure);
}

TEST(TextTable, CsvEscapesSpecials)
{
    EXPECT_EQ(csvQuote("plain"), "plain");
    EXPECT_EQ(csvQuote("a,b"), "\"a,b\"");
    EXPECT_EQ(csvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
    TextTable table({"x"});
    table.addRow({"v,w"});
    std::ostringstream os;
    table.renderCsv(os);
    EXPECT_EQ(os.str(), "x\n\"v,w\"\n");
}

TEST(TextTable, SeparatorRendersRule)
{
    TextTable table({"H"});
    table.addRow({"1"});
    table.addSeparator();
    table.addRow({"2"});
    const std::string out = table.toString();
    // Header rule plus the explicit separator.
    std::size_t rules = 0;
    for (const std::string &line : splitLines(out)) {
        if (!line.empty() &&
            line.find_first_not_of('-') == std::string::npos) {
            ++rules;
        }
    }
    EXPECT_EQ(rules, 2u);
}

// ---------------------------------------------------------------------
// Thread pool and parallel-for.
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedJob)
{
    std::atomic<int> count{0};
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleRethrowsTheFirstJobError)
{
    ThreadPool pool(2);
    pool.submit([] { throw ConfigFailure("job failed"); });
    EXPECT_THROW(pool.waitIdle(), ConfigFailure);
    // The pool survives the error and stays usable.
    std::atomic<int> count{0};
    pool.submit([&count] { count.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ErrorDiscardsQueuedJobsAndFailsFast)
{
    // One worker drains the queue in FIFO order, so the throwing job
    // is guaranteed to record its error before any of the jobs queued
    // behind it are popped -- every one of them must be discarded, not
    // run.
    ThreadPool pool(1);
    std::atomic<int> count{0};
    pool.submit([] { throw ConfigFailure("fail fast"); });
    for (int i = 0; i < 50; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    EXPECT_THROW(pool.waitIdle(), ConfigFailure);
    EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPool, SecondWaitIdleAfterAnErrorSucceeds)
{
    ThreadPool pool(2);
    pool.submit([] { throw ConfigFailure("once"); });
    EXPECT_THROW(pool.waitIdle(), ConfigFailure);
    // The error is consumed by the first rethrow: a second waitIdle
    // on the (now idle) pool returns cleanly.
    EXPECT_NO_THROW(pool.waitIdle());
    // And jobs submitted after the error run normally again.
    std::atomic<int> count{0};
    pool.submit([&count] { count.fetch_add(1); });
    EXPECT_NO_THROW(pool.waitIdle());
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ConcurrentConstructionWithBadEnvJobsIsSafe)
{
    // Regression: the warn-once latch inside envJobs() was a plain
    // static bool, racing when two pools were built from two threads.
    // Now an atomic exchange; TSan (which runs this suite in CI)
    // verifies the fix. The warning itself may already have been
    // consumed by an earlier test -- only the safety is asserted.
    ASSERT_EQ(setenv("BRANCHLAB_JOBS", "not-a-number", 1), 0);
    std::atomic<int> total{0};
    const auto build_pool = [&total] {
        ThreadPool pool(resolveJobs(0));
        for (int i = 0; i < 8; ++i)
            pool.submit([&total] { total.fetch_add(1); });
        pool.waitIdle();
    };
    std::thread a(build_pool);
    std::thread b(build_pool);
    a.join();
    b.join();
    ASSERT_EQ(unsetenv("BRANCHLAB_JOBS"), 0);
    EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, TelemetryIsNamespacedByPoolName)
{
    // Regression: pool telemetry used to be one set of per-process
    // globals, so a long-lived daemon pool and per-request pools all
    // folded into the same counters. Each named family must only see
    // its own pool's jobs.
    obs::Counter &alpha =
        obs::Registry::global().counter("threadpool.tp_alpha.jobs");
    obs::Counter &beta =
        obs::Registry::global().counter("threadpool.tp_beta.jobs");
    const std::uint64_t alphaBefore = alpha.value();
    const std::uint64_t betaBefore = beta.value();
    {
        ThreadPool pool(2, "tp_alpha");
        for (int i = 0; i < 7; ++i)
            pool.submit([] {});
        pool.waitIdle();
    }
    {
        ThreadPool pool(2, "tp_beta");
        for (int i = 0; i < 3; ++i)
            pool.submit([] {});
        pool.waitIdle();
    }
    EXPECT_EQ(alpha.value() - alphaBefore, 7u);
    EXPECT_EQ(beta.value() - betaBefore, 3u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 4u, 9u}) {
        std::vector<int> hits(257, 0);
        parallelFor(hits.size(), jobs,
                    [&hits](std::size_t i) { hits[i] += 1; });
        EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 257)
            << jobs << " jobs";
        for (int h : hits)
            EXPECT_EQ(h, 1);
    }
}

TEST(ParallelFor, PropagatesExceptionsFromWorkers)
{
    EXPECT_THROW(parallelFor(8, 4,
                             [](std::size_t i) {
                                 if (i == 5)
                                     blab_fatal("worker ", i);
                             }),
                 ConfigFailure);
    // Inline (serial) path throws too.
    EXPECT_THROW(parallelFor(8, 1,
                             [](std::size_t i) {
                                 if (i == 5)
                                     blab_fatal("worker ", i);
                             }),
                 ConfigFailure);
}

TEST(ParallelFor, HandlesEmptyAndSingleRanges)
{
    int calls = 0;
    parallelFor(0, 4, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(1, 4, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(Jobs, ResolutionPrefersExplicitThenEnvThenHardware)
{
    ASSERT_EQ(unsetenv("BRANCHLAB_JOBS"), 0);
    EXPECT_EQ(resolveJobs(3), 3u);
    EXPECT_EQ(resolveJobs(0), hardwareJobs());
    EXPECT_EQ(envJobs(), 0u);

    ASSERT_EQ(setenv("BRANCHLAB_JOBS", "5", 1), 0);
    EXPECT_EQ(envJobs(), 5u);
    EXPECT_EQ(resolveJobs(0), 5u);
    EXPECT_EQ(resolveJobs(2), 2u); // explicit still wins

    ASSERT_EQ(setenv("BRANCHLAB_JOBS", "zero", 1), 0);
    EXPECT_EQ(envJobs(), 0u);
    EXPECT_EQ(resolveJobs(0), hardwareJobs());
    ASSERT_EQ(unsetenv("BRANCHLAB_JOBS"), 0);
    EXPECT_GE(hardwareJobs(), 1u);
}

// ---------------------------------------------------------------------
// Timing.
// ---------------------------------------------------------------------

TEST(Timer, StopwatchIsMonotoneAndResets)
{
    Stopwatch watch;
    const double first = watch.seconds();
    EXPECT_GE(first, 0.0);
    const double second = watch.seconds();
    EXPECT_GE(second, first);
    watch.reset();
    EXPECT_GE(watch.seconds(), 0.0);
    EXPECT_NEAR(watch.millis(), watch.seconds() * 1e3, 1.0);
}

TEST(Timer, ScopeTimerAccumulatesIntoTarget)
{
    double total = 0.0;
    {
        ScopeTimer timer(&total);
    }
    const double once = total;
    EXPECT_GE(once, 0.0);
    {
        ScopeTimer timer(&total);
    }
    EXPECT_GE(total, once); // accumulates, not overwrites
}

// ---------------------------------------------------------------------
// Durable directories.
// ---------------------------------------------------------------------

TEST(DurableDir, PublishesIntoShardsAndCleansUpFailedWrites)
{
    const std::string root = ::testing::TempDir() + "blab_durable_dir";
    std::filesystem::remove_all(root);
    const DurableDir dir(root, "test.durable", ".blob");
    EXPECT_EQ(hash16(0xab12ULL), "000000000000ab12");
    const std::string path = dir.shardPath(0xcd00000000000001ULL, "x.blob");
    EXPECT_EQ(path, root + "/cd/x.blob");

    const auto write = [](const std::string &tmp) {
        return static_cast<bool>(std::ofstream(tmp) << "payload");
    };
    const DurableDir::PublishResult ok = dir.publish(
        path, write, DurableDir::OnSyncFailure::Discard);
    EXPECT_TRUE(ok.published);
    EXPECT_EQ(dir.storeFiles(), std::vector<std::string>{path});

    obs::Counter &evicted =
        obs::Registry::global().counter("test.durable.tmp_evicted");
    const std::uint64_t evicted_before = evicted.value();
    const DurableDir::PublishResult failed = dir.publish(
        root + "/cd/y.blob",
        [](const std::string &tmp) {
            std::ofstream(tmp) << "torn";
            return false;
        },
        DurableDir::OnSyncFailure::Publish);
    EXPECT_FALSE(failed.published);
    EXPECT_EQ(evicted.value(), evicted_before + 1);
    // Only the published file remains: the failed temp is gone.
    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(root))
        files += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(files, 1u);
    std::filesystem::remove_all(root);
}

/** A published store file of @p size bytes whose mtime is @p age old. */
std::string
plantStoreFile(const DurableDir &dir, std::uint64_t hash,
               const std::string &name, std::size_t size,
               std::chrono::seconds age)
{
    const std::string path = dir.shardPath(hash, name);
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream(path, std::ios::binary) << std::string(size, 'x');
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now() - age);
    return path;
}

TEST(DurableDir, ByteCapEvictsOldestFirstButNeverOwnPublishes)
{
    const std::string root = ::testing::TempDir() + "blab_durable_cap";
    std::filesystem::remove_all(root);
    const DurableDir dir(root, "test.durable_cap", ".blob");
    using std::chrono::seconds;
    const std::string oldest =
        plantStoreFile(dir, 0x1100000000000000ULL, "a.blob", 100,
                       seconds(400));
    const std::string older =
        plantStoreFile(dir, 0x2200000000000000ULL, "b.blob", 100,
                       seconds(300));
    const std::string newer =
        plantStoreFile(dir, 0x3300000000000000ULL, "c.blob", 100,
                       seconds(200));
    // Not a store file: the cap neither counts nor evicts it.
    plantStoreFile(dir, 0x3300000000000000ULL, "c.other", 1000,
                   seconds(900));

    obs::Counter &evictions =
        obs::Registry::global().counter("test.durable_cap.evictions");
    const std::uint64_t before = evictions.value();

    // 0 means unbounded: nothing is walked or removed.
    dir.enforceByteCap(0, {});
    EXPECT_EQ(dir.storeFiles().size(), 3u);

    // 300 bytes under a 250-byte cap: the oldest file goes first.
    dir.enforceByteCap(250, {});
    EXPECT_EQ(dir.storeFiles(), (std::vector<std::string>{older, newer}));
    EXPECT_EQ(evictions.value(), before + 1);

    // A cap smaller than one file still keeps the caller's own
    // publish, even when it is the stalest file left.
    dir.enforceByteCap(1, {older});
    EXPECT_EQ(dir.storeFiles(), std::vector<std::string>{older});
    EXPECT_EQ(evictions.value(), before + 2);
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(newer).parent_path() / "c.other"));
    std::filesystem::remove_all(root);
}

TEST(DurableDir, WeightBreaksMtimeTiesLeastWeightPerByteFirst)
{
    const std::string root = ::testing::TempDir() + "blab_durable_weight";
    const DurableDir dir(root, "test.durable_weight", ".blob");
    // Equal mtimes and sizes: the file that is cheaper to recompute
    // per byte is evicted. Both shard orders are tried, so the result
    // cannot come from the walk order alone.
    for (const bool cheap_first : {true, false}) {
        std::filesystem::remove_all(root);
        const std::string a = plantStoreFile(
            dir, 0x4400000000000000ULL, "a.blob", 100,
            std::chrono::seconds(60));
        const std::string b = plantStoreFile(
            dir, 0x5500000000000000ULL, "b.blob", 100,
            std::chrono::seconds(60));
        std::filesystem::last_write_time(
            b, std::filesystem::last_write_time(a));
        const std::string &cheap = cheap_first ? a : b;
        const std::string &dear = cheap_first ? b : a;
        dir.enforceByteCap(150, {},
                           [&](const std::filesystem::path &path) {
                               return path.string() == cheap
                                          ? std::uint64_t{2}
                                          : std::uint64_t{50};
                           });
        EXPECT_EQ(dir.storeFiles(), std::vector<std::string>{dear})
            << "cheap_first=" << cheap_first;
    }
    std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------
// Little-endian codec.
// ---------------------------------------------------------------------

TEST(LeCodec, AppendsLittleEndianBytesAndLoadsThemBack)
{
    std::string out;
    appendLe16(out, 0x0102);
    appendLe32(out, 0x03040506u);
    appendLe64(out, 0x0708090a0b0c0d0eULL);
    appendLeF64(out, -0.0);
    const std::string expected_ints("\x02\x01"
                                    "\x06\x05\x04\x03"
                                    "\x0e\x0d\x0c\x0b\x0a\x09\x08\x07",
                                    14);
    ASSERT_EQ(out.size(), 22u);
    EXPECT_EQ(out.substr(0, 14), expected_ints);
    // -0.0 is only its sign bit, the last byte in little-endian order.
    EXPECT_EQ(out.substr(14), std::string("\0\0\0\0\0\0\0\x80", 8));

    const auto *p = reinterpret_cast<const std::uint8_t *>(out.data());
    EXPECT_EQ(loadLe16(p), 0x0102);
    EXPECT_EQ(loadLe32(p + 2), 0x03040506u);
    EXPECT_EQ(loadLe64(p + 6), 0x0708090a0b0c0d0eULL);
    const double zero = loadLeF64(p + 14);
    EXPECT_EQ(zero, 0.0);
    EXPECT_TRUE(std::signbit(zero));
}

TEST(LeCodec, ReaderRefusesShortReadsWithoutConsuming)
{
    std::string data;
    appendLe32(data, 7);
    data += "ab";
    LeReader reader(data);
    std::uint64_t wide = 99;
    EXPECT_FALSE(reader.u64(wide)); // 6 bytes left: too short
    EXPECT_EQ(wide, 99u);
    std::uint32_t narrow = 0;
    ASSERT_TRUE(reader.u32(narrow)); // the failed read consumed nothing
    EXPECT_EQ(narrow, 7u);
    std::string tail;
    EXPECT_FALSE(reader.bytes(3, tail));
    ASSERT_TRUE(reader.bytes(2, tail));
    EXPECT_EQ(tail, "ab");
    EXPECT_TRUE(reader.exhausted());
    std::uint8_t byte = 0;
    EXPECT_FALSE(reader.u8(byte));
}

} // namespace
} // namespace branchlab
