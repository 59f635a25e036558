/**
 * @file
 * Tests for the sweep journal, mirroring test_trace_cache: segment
 * round trips, truncation and checksum damage (Corrupt: warn +
 * counter, keep the verified prefix), foreign versions/feature bits
 * (quiet refusal), files of the retired per-point format (ignored,
 * points re-evaluate), byte-cap LRU eviction, stale-temp reclamation
 * in both durable stores, env resolution, and thread safety.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>
#include <vector>

#include "core/runner.hh"
#include "core/sweep.hh"
#include "core/sweep_journal.hh"
#include "obs/metrics.hh"
#include "support/durable_dir.hh"
#include "support/le_codec.hh"
#include "support/logging.hh"
#include "trace/cache.hh"
#include "workloads/workload.hh"

namespace branchlab::core
{
namespace
{

/** Fresh throwaway journal directory per test. */
std::string
makeDir(const std::string &tag)
{
    const std::string dir =
        ::testing::TempDir() + "blab_sweep_journal_" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

std::vector<SweepCell>
makeCells(std::uint64_t salt)
{
    std::vector<SweepCell> cells(2);
    for (std::size_t w = 0; w < cells.size(); ++w) {
        const double base =
            static_cast<double>((salt + w) % 97) / 97.0;
        cells[w] = {base, 1.0 - base, base * 0.5, 1.0 - base * 0.5,
                    base * 0.25, base * 0.125};
    }
    return cells;
}

/** Every sealed segment under @p dir, sorted for determinism. */
std::vector<std::string>
segmentFiles(const std::string &dir)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (std::filesystem::recursive_directory_iterator it(dir, ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (it->path().extension() == ".blsg")
            files.push_back(it->path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

void
patchByte(const std::string &path, std::streamoff offset,
          unsigned char xor_mask)
{
    std::fstream file(path, std::ios::binary | std::ios::in |
                                std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekg(offset);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(static_cast<unsigned char>(byte) ^
                             xor_mask);
    file.seekp(offset);
    file.write(&byte, 1);
}

std::uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

TEST(SweepJournalSegments, RoundTripsManyRecordsAcrossSegments)
{
    const std::string dir = makeDir("segments");
    const std::uint64_t mapped_before =
        counterValue("sweep.journal.bytes_mapped");
    {
        SweepJournal journal(dir);
        for (std::uint64_t key = 1; key <= 10; ++key)
            journal.store(key, makeCells(key));
        journal.flush(); // first segment
        for (std::uint64_t key = 11; key <= 20; ++key)
            journal.store(key, makeCells(key));
        journal.flush(); // second segment
    }
    ASSERT_EQ(segmentFiles(dir).size(), 2u);

    SweepJournal journal(dir);
    journal.open();
    EXPECT_EQ(journal.mappedSegments(), 2u);
    EXPECT_EQ(journal.indexedRecords(), 20u);
    EXPECT_GT(counterValue("sweep.journal.bytes_mapped"),
              mapped_before);
    std::vector<SweepCell> cells;
    for (std::uint64_t key = 1; key <= 20; ++key) {
        ASSERT_TRUE(journal.load(key, cells)) << key;
        EXPECT_EQ(cells, makeCells(key));
    }
    EXPECT_FALSE(journal.load(21, cells));
}

TEST(SweepJournalSegments, TruncationKeepsTheVerifiedPrefix)
{
    const std::string dir = makeDir("truncate");
    {
        SweepJournal journal(dir);
        for (std::uint64_t key = 1; key <= 3; ++key)
            journal.store(key, makeCells(key));
    }
    const std::vector<std::string> segments = segmentFiles(dir);
    ASSERT_EQ(segments.size(), 1u);
    std::error_code ec;
    const std::uintmax_t size =
        std::filesystem::file_size(segments[0], ec);
    ASSERT_FALSE(ec);
    // Cut into the last record: its checksum can no longer match.
    std::filesystem::resize_file(segments[0], size - 8, ec);
    ASSERT_FALSE(ec);

    const std::uint64_t corrupt_before =
        counterValue("sweep.journal.corrupt");
    resetWarningCount();
    SweepJournal journal(dir);
    journal.open();
    EXPECT_GE(warningCount(), 1u);
    EXPECT_EQ(counterValue("sweep.journal.corrupt"),
              corrupt_before + 1);
    // The verified prefix survives; only the damaged tail
    // re-evaluates.
    std::vector<SweepCell> cells;
    EXPECT_TRUE(journal.load(1, cells));
    EXPECT_TRUE(journal.load(2, cells));
    EXPECT_FALSE(journal.load(3, cells));
}

TEST(SweepJournalSegments, ChecksumFlipAbandonsTheSegmentTail)
{
    const std::string dir = makeDir("bitflip");
    {
        SweepJournal journal(dir);
        journal.store(1, makeCells(1));
        journal.store(2, makeCells(2));
    }
    const std::vector<std::string> segments = segmentFiles(dir);
    ASSERT_EQ(segments.size(), 1u);
    // Flip one payload byte of the FIRST record (offset 64 header +
    // 16 framing lands in its first cell): its checksum mismatches,
    // and the framing beyond it is no longer trusted.
    patchByte(segments[0], 64 + 16, 0x40);

    const std::uint64_t corrupt_before =
        counterValue("sweep.journal.corrupt");
    resetWarningCount();
    SweepJournal journal(dir);
    journal.open();
    EXPECT_GE(warningCount(), 1u);
    EXPECT_EQ(counterValue("sweep.journal.corrupt"),
              corrupt_before + 1);
    std::vector<SweepCell> cells;
    EXPECT_FALSE(journal.load(1, cells));
    EXPECT_FALSE(journal.load(2, cells));
}

TEST(SweepJournalSegments, ForeignFeatureBitsRefuseQuietly)
{
    const std::string dir = makeDir("foreign_bits");
    {
        SweepJournal journal(dir);
        journal.store(1, makeCells(1));
    }
    const std::vector<std::string> segments = segmentFiles(dir);
    ASSERT_EQ(segments.size(), 1u);
    // Feature bits live at offset 8; setting an unknown bit marks
    // the segment as needing a feature this reader lacks.
    patchByte(segments[0], 8, 0x01);

    const std::uint64_t foreign_before =
        counterValue("sweep.journal.foreign");
    const std::uint64_t corrupt_before =
        counterValue("sweep.journal.corrupt");
    resetWarningCount();
    SweepJournal journal(dir);
    journal.open();
    // Foreign, not broken: no warning, no corrupt count.
    EXPECT_EQ(warningCount(), 0u);
    EXPECT_EQ(counterValue("sweep.journal.foreign"),
              foreign_before + 1);
    EXPECT_EQ(counterValue("sweep.journal.corrupt"), corrupt_before);
    std::vector<SweepCell> cells;
    EXPECT_FALSE(journal.load(1, cells));
}

TEST(SweepJournalSegments, ForeignContainerVersionRefusesQuietly)
{
    const std::string dir = makeDir("foreign_version");
    {
        SweepJournal journal(dir);
        journal.store(1, makeCells(1));
    }
    const std::vector<std::string> segments = segmentFiles(dir);
    ASSERT_EQ(segments.size(), 1u);
    patchByte(segments[0], 4, 0x40); // container version field

    const std::uint64_t foreign_before =
        counterValue("sweep.journal.foreign");
    resetWarningCount();
    SweepJournal journal(dir);
    journal.open();
    EXPECT_EQ(warningCount(), 0u);
    EXPECT_EQ(counterValue("sweep.journal.foreign"),
              foreign_before + 1);
    std::vector<SweepCell> cells;
    EXPECT_FALSE(journal.load(1, cells));
}

/** A file of the retired per-point format ("BLSJ", schema, key,
 *  count, cells; no checksum) holding @p cells under @p key. */
std::string
retiredPointFile(std::uint64_t key, const std::vector<SweepCell> &cells)
{
    std::string data = "BLSJ";
    appendLe64(data, kJournalSchemaVersion);
    appendLe64(data, key);
    appendLe64(data, cells.size());
    for (const SweepCell &cell : cells) {
        for (const double v :
             {cell.sbtbAccuracy, cell.sbtbMissRatio, cell.cbtbAccuracy,
              cell.cbtbMissRatio, cell.fsAccuracy, cell.codeIncrease})
            appendLeF64(data, v);
    }
    return data;
}

TEST(SweepJournalRetiredFormat, PerPointFilesAreIgnoredAndReEvaluated)
{
    SweepConfig config;
    config.axes.btbEntries = {16, 64};
    config.axes.counterThresholds = {1, 2};
    config.workloads = {"tee", "cmp"};
    config.base.runsOverride = 1;
    const SweepResult cold = runSweep(config);
    ASSERT_EQ(cold.points.size(), 4u);

    // Plant a per-point file with wrong cells for every grid point: a
    // reader that still trusted the format would resume garbage.
    config.journalDir = makeDir("retired");
    std::filesystem::create_directories(config.journalDir);
    std::vector<std::uint64_t> hashes;
    for (const std::string &name : cold.workloads)
        hashes.push_back(workloadContentHash(
            workloads::findWorkload(name), config.base));
    std::vector<std::uint64_t> keys;
    for (const SweepPointResult &point : cold.points) {
        keys.push_back(sweepPointKey(point.point, cold.workloads, hashes));
        std::ofstream(config.journalDir + "/point-" +
                          hash16(keys.back()) + ".blsj",
                      std::ios::binary)
            << retiredPointFile(keys.back(), makeCells(keys.back()));
    }

    const std::uint64_t corrupt_before =
        counterValue("sweep.journal.corrupt");
    resetWarningCount();
    {
        SweepJournal journal(config.journalDir);
        std::vector<SweepCell> cells;
        for (const std::uint64_t key : keys)
            EXPECT_FALSE(journal.load(key, cells));
    }
    EXPECT_EQ(counterValue("sweep.journal.corrupt"), corrupt_before);
    EXPECT_EQ(warningCount(), 0u);

    // Every point re-evaluates, then resumes from real segments; both
    // grids match the uninterrupted one byte for byte.
    const SweepResult first = runSweep(config);
    EXPECT_EQ(first.stats.evaluated, cold.points.size());
    EXPECT_EQ(first.stats.resumed, 0u);
    const SweepResult resumed = runSweep(config);
    EXPECT_EQ(resumed.stats.resumed, cold.points.size());
    const std::string csv = sweepToCsv(cold);
    EXPECT_EQ(sweepToCsv(first), csv);
    EXPECT_EQ(sweepToCsv(resumed), csv);
}

TEST(SweepJournalEviction, ByteCapEvictsLeastRecentlyUsedFirst)
{
    const std::string dir = makeDir("evict");
    const auto seal_one = [&](std::uint64_t key,
                              std::chrono::hours age) {
        {
            SweepJournal journal(dir);
            journal.store(key, makeCells(key));
        }
        // Age the newest segment so eviction order is deterministic.
        std::filesystem::path newest;
        std::filesystem::file_time_type newest_mtime;
        for (const std::string &path : segmentFiles(dir)) {
            std::error_code ec;
            const auto mtime =
                std::filesystem::last_write_time(path, ec);
            if (newest.empty() || mtime > newest_mtime) {
                newest = path;
                newest_mtime = mtime;
            }
        }
        std::error_code ec;
        std::filesystem::last_write_time(
            newest,
            std::filesystem::file_time_type::clock::now() - age, ec);
    };
    seal_one(1, std::chrono::hours(3));
    seal_one(2, std::chrono::hours(2));
    seal_one(3, std::chrono::hours(1));
    ASSERT_EQ(segmentFiles(dir).size(), 3u);
    std::error_code ec;
    const std::uintmax_t segment_bytes =
        std::filesystem::file_size(segmentFiles(dir)[0], ec);

    const std::uint64_t evictions_before =
        counterValue("sweep.journal.evictions");
    const std::uint64_t bytes_before =
        counterValue("sweep.journal.bytes_evicted");
    {
        // Cap admits two segments: sealing the fourth must evict the
        // two stalest and keep the third and the just-sealed one.
        SweepJournal journal(dir, 2 * segment_bytes + 16);
        journal.store(4, makeCells(4));
        journal.flush();
    }
    EXPECT_EQ(counterValue("sweep.journal.evictions"),
              evictions_before + 2);
    EXPECT_EQ(counterValue("sweep.journal.bytes_evicted"),
              bytes_before + 2 * segment_bytes);
    EXPECT_EQ(segmentFiles(dir).size(), 2u);

    SweepJournal journal(dir);
    std::vector<SweepCell> cells;
    EXPECT_FALSE(journal.load(1, cells));
    EXPECT_FALSE(journal.load(2, cells));
    EXPECT_TRUE(journal.load(3, cells));
    EXPECT_TRUE(journal.load(4, cells));
}

TEST(SweepJournalEviction, ResolveMaxBytesPrefersConfigThenEnv)
{
    unsetenv("BRANCHLAB_SWEEP_JOURNAL_MAX_BYTES");
    EXPECT_EQ(resolveByteCap(123, kJournalMaxBytesEnv), 123u);
    EXPECT_EQ(resolveByteCap(0, kJournalMaxBytesEnv), 0u);

    setenv("BRANCHLAB_SWEEP_JOURNAL_MAX_BYTES", "4096", 1);
    EXPECT_EQ(resolveByteCap(0, kJournalMaxBytesEnv), 4096u);
    EXPECT_EQ(resolveByteCap(123, kJournalMaxBytesEnv), 123u);

    setenv("BRANCHLAB_SWEEP_JOURNAL_MAX_BYTES", "not-a-number", 1);
    resetWarningCount();
    EXPECT_EQ(resolveByteCap(0, kJournalMaxBytesEnv), 0u);
    EXPECT_GE(warningCount(), 1u);
    unsetenv("BRANCHLAB_SWEEP_JOURNAL_MAX_BYTES");
}

/** Both durable stores -- the journal on open, the trace cache on
 *  store -- reclaim the orphaned temps of killed writers and keep the
 *  young temps of live ones. */
TEST(SweepJournalTemps, StaleTempsAreReclaimedFreshOnesKept)
{
    struct Store
    {
        const char *tag;
        const char *counter;
        std::function<void(const std::string &)> touch;
    };
    const Store stores[] = {
        {"journal", "sweep.journal.tmp_reclaimed",
         [](const std::string &dir) { SweepJournal(dir).open(); }},
        {"cache", "trace_cache.tmp_reclaimed",
         [](const std::string &dir) {
             trace::CachedWorkload workload;
             workload.contentHash = 42;
             workload.runs = 1;
             trace::TraceCache(dir).store("empty", workload);
         }},
    };
    for (const Store &store : stores) {
        SCOPED_TRACE(store.tag);
        const std::string dir = makeDir(std::string("temps_") + store.tag);
        std::filesystem::create_directories(dir + "/ab");
        const std::string stale = dir + "/ab/seg-dead.blsg.tmp-99999-0";
        const std::string fresh = dir + "/ab/seg-beef.blsg.tmp-99999-1";
        {
            std::ofstream(stale) << "torn";
            std::ofstream(fresh) << "in-flight";
        }
        std::error_code ec;
        std::filesystem::last_write_time(
            stale,
            std::filesystem::file_time_type::clock::now() -
                std::chrono::hours(1),
            ec);
        ASSERT_FALSE(ec);

        const std::uint64_t reclaimed_before =
            counterValue(store.counter);
        store.touch(dir);
        EXPECT_EQ(counterValue(store.counter), reclaimed_before + 1);
        // The orphan of a killed run is gone; a temp young enough to
        // belong to a live concurrent writer survives.
        EXPECT_FALSE(std::filesystem::exists(stale, ec));
        EXPECT_TRUE(std::filesystem::exists(fresh, ec));
    }
}

TEST(SweepJournalConcurrency, ParallelStoresAllPersist)
{
    const std::string dir = makeDir("parallel");
    {
        SweepJournal journal(dir);
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < 4; ++t) {
            threads.emplace_back([&journal, t] {
                for (std::uint64_t i = 0; i < 64; ++i) {
                    const std::uint64_t key = t * 64 + i + 1;
                    journal.store(key, makeCells(key));
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    SweepJournal journal(dir);
    std::vector<SweepCell> cells;
    for (std::uint64_t key = 1; key <= 4 * 64; ++key) {
        ASSERT_TRUE(journal.load(key, cells)) << key;
        EXPECT_EQ(cells, makeCells(key));
    }
}

} // namespace
} // namespace branchlab::core
