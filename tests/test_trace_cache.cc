/**
 * @file
 * Tests for the persistent trace cache: round trips, corruption and
 * hash-mismatch handling (no crash, no silent stale reuse), directory
 * resolution, and warm-path bit-identity through recordWorkload and
 * the experiment runner.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>
#include <vector>

#include "core/runner.hh"
#include "helpers.hh"
#include "obs/metrics.hh"
#include "profile/forward_slots.hh"
#include "trace/cache.hh"
#include "trace/format.hh"
#include "workloads/corpus.hh"

namespace branchlab::trace
{
namespace
{

/** Fresh throwaway cache directory per test. */
std::string
makeCacheDir(const std::string &tag)
{
    const std::string dir = ::testing::TempDir() + "blab_cache_" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

CachedWorkload
makeWorkload()
{
    const ir::Program prog = test::buildFactorial(5);
    BranchRecorder recorder;
    test::runProgram(prog, &recorder);

    CachedWorkload workload;
    workload.contentHash = 0x1234abcd5678ef01ULL;
    workload.runs = 3;
    workload.stats = {1000, 200, 150, 90, 40};
    workload.likely = {{0x1000, 0x1010, true}, {0x1004, ir::kNoAddr, false}};
    workload.stream = SoaTrace::fromEvents(recorder.takeEvents());
    return workload;
}

TEST(TraceCache, DisabledCacheNeverHitsAndStoresNothing)
{
    const TraceCache cache;
    EXPECT_FALSE(cache.enabled());
    CachedWorkload out;
    EXPECT_FALSE(cache.load("anything", 42, out));
    cache.store("anything", makeWorkload()); // must be a no-op
}

TEST(TraceCache, StoreThenLoadRoundTripsBitExactly)
{
    const std::string dir = makeCacheDir("roundtrip");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);

    CachedWorkload loaded;
    ASSERT_TRUE(cache.load("fact", stored.contentHash, loaded));
    EXPECT_EQ(loaded.contentHash, stored.contentHash);
    EXPECT_EQ(loaded.runs, stored.runs);
    EXPECT_EQ(loaded.stats, stored.stats);
    EXPECT_EQ(loaded.likely, stored.likely);
    // A v2 hit arrives zero-copy mapped, the owning stream empty.
    ASSERT_NE(loaded.mapped, nullptr);
    EXPECT_EQ(loaded.stream.size(), 0u);
    ASSERT_EQ(loaded.eventCount(), stored.stream.size());
    const SoaTrace decoded = materializeView(loaded.traceView());
    ASSERT_EQ(decoded.size(), stored.stream.size());
    for (std::size_t i = 0; i < decoded.size(); ++i) {
        const BranchEvent a = decoded.event(i);
        const BranchEvent b = stored.stream.event(i);
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(a.nextPc, b.nextPc);
        EXPECT_EQ(a.targetAddr, b.targetAddr);
        EXPECT_EQ(a.fallthroughAddr, b.fallthroughAddr);
        EXPECT_EQ(a.op, b.op);
        EXPECT_EQ(a.conditional, b.conditional);
        EXPECT_EQ(a.taken, b.taken);
        EXPECT_EQ(a.targetKnown, b.targetKnown);
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, CountersTrackHitsMissesAndStores)
{
    const std::string dir = makeCacheDir("counters");
    const TraceCache cache(dir);
    resetTraceCacheCounters();

    const CachedWorkload stored = makeWorkload();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
    cache.store("fact", stored);
    EXPECT_TRUE(cache.load("fact", stored.contentHash, out));

    const TraceCacheCounters counters = traceCacheCounters();
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(counters.stores, 1u);
    EXPECT_EQ(counters.hits, 1u);
    resetTraceCacheCounters();
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, CorruptEntryIsRejectedWithoutCrashing)
{
    const std::string dir = makeCacheDir("corrupt");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);

    // Overwrite the entry with garbage: load must warn and miss, so
    // the caller re-records instead of crashing or using stale data.
    const std::string path = cache.entryPath("fact", stored.contentHash);
    {
        std::ofstream file(path, std::ios::binary | std::ios::trunc);
        file << "BLTC this is not a cache entry";
    }
    resetWarningCount();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
    EXPECT_GE(warningCount(), 1u);

    // Truncation mid-payload is also a soft miss.
    const CachedWorkload fresh = makeWorkload();
    cache.store("fact", fresh);
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) - 7);
    EXPECT_FALSE(cache.load("fact", fresh.contentHash, out));
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, ConcurrentStoresOfOneKeyLeaveOneDecodableEntry)
{
    // Regression: temp files were named "<entry>.tmp", so two threads
    // storing the same key concurrently interleaved writes into one
    // file and could publish a torn entry. Temp names now carry a
    // <pid>-<sequence> suffix; hammer one key from many threads and
    // demand the surviving entry decodes cleanly.
    const std::string dir = makeCacheDir("hammer");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();

    constexpr int kThreads = 8;
    constexpr int kStoresPerThread = 16;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &stored] {
            for (int i = 0; i < kStoresPerThread; ++i)
                cache.store("fact", stored);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    CachedWorkload loaded;
    ASSERT_TRUE(cache.load("fact", stored.contentHash, loaded));
    EXPECT_EQ(loaded.contentHash, stored.contentHash);
    EXPECT_EQ(loaded.stats, stored.stats);
    EXPECT_EQ(loaded.likely, stored.likely);
    ASSERT_EQ(loaded.eventCount(), stored.stream.size());

    // Every rename succeeded, so no temp files may survive: the tree
    // (entries live in shard subdirectories) holds exactly the one
    // published entry.
    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        ++files;
        EXPECT_EQ(entry.path().extension(), ".bltc")
            << entry.path() << " left behind";
    }
    EXPECT_EQ(files, 1u);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, TruncatedEntryCountsAsCorruptTelemetry)
{
    const std::string dir = makeCacheDir("trunc_telemetry");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string path =
        cache.entryPath("fact", stored.contentHash);
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);

    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    obs::Counter &map_failures =
        obs::Registry::global().counter("trace_cache.map_failures");
    const std::uint64_t before = corrupt.value();
    const std::uint64_t failures_before = map_failures.value();
    resetWarningCount();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
    EXPECT_EQ(corrupt.value(), before + 1);
    EXPECT_EQ(map_failures.value(), failures_before + 1);
    EXPECT_GE(warningCount(), 1u);

    // A fresh store overwrites the corpse and the entry serves again
    // without bumping the corruption count.
    cache.store("fact", stored);
    EXPECT_TRUE(cache.load("fact", stored.contentHash, out));
    EXPECT_EQ(corrupt.value(), before + 1);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, BitFlippedEntryCountsAsCorruptTelemetry)
{
    const std::string dir = makeCacheDir("flip_telemetry");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string path =
        cache.entryPath("fact", stored.contentHash);

    // Flip one bit of the embedded content hash (bytes 16..23 of the
    // header, after magic + version + feature bits) and reseal the
    // header checksum: the file still parses but the hash check must
    // reject it as corrupt.
    {
        std::fstream file(
            path, std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(file.good());
        file.seekg(16);
        char byte = 0;
        file.get(byte);
        byte = static_cast<char>(byte ^ 0x40);
        file.seekp(16);
        file.put(byte);
    }
    test::resealEntryFile(path);

    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    const std::uint64_t before = corrupt.value();
    resetWarningCount();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
    EXPECT_EQ(corrupt.value(), before + 1);
    EXPECT_GE(warningCount(), 1u);
    std::filesystem::remove_all(dir);
}

/** Flip file byte @p offset through XOR @p mask. */
void
patchByte(const std::string &path, std::streamoff offset,
          unsigned char mask)
{
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekg(offset);
    char byte = 0;
    file.get(byte);
    byte = static_cast<char>(byte ^ mask);
    file.seekp(offset);
    file.put(byte);
}

TEST(TraceCache, UnknownFeatureBitsRefuseWithoutCorruptionWarning)
{
    const std::string dir = makeCacheDir("foreign");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string path =
        cache.entryPath("fact", stored.contentHash);

    // Set an undefined feature bit (header bytes 8..15) under a valid
    // header checksum: the entry is structurally valid but written by
    // a future writer, so the load must refuse it -- as a foreign
    // entry, not a corrupt one.
    patchByte(path, 8, 0x10);
    test::resealEntryFile(path);

    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    obs::Counter &map_failures =
        obs::Registry::global().counter("trace_cache.map_failures");
    const std::uint64_t corrupt_before = corrupt.value();
    const std::uint64_t failures_before = map_failures.value();
    resetWarningCount();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
    EXPECT_EQ(map_failures.value(), failures_before + 1);
    EXPECT_EQ(corrupt.value(), corrupt_before);
    EXPECT_EQ(warningCount(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, BadSectionLengthIsRejectedAsCorrupt)
{
    const std::string dir = makeCacheDir("badlen");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string path =
        cache.entryPath("fact", stored.contentHash);

    // Blow up the Ops section's recorded length (section-table row 1,
    // 8 bytes into the {offset, length, checksum} record) and reseal
    // the header checksum, as a buggy writer would: the section no
    // longer fits the file, so mapping must reject the entry instead
    // of reading out of bounds.
    const std::streamoff ops_length_at =
        static_cast<std::streamoff>(kEntryHeaderBytes) +
        kSectionRecordBytes + 8;
    patchByte(path, ops_length_at + 6, 0x7f);
    test::resealEntryFile(path);

    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    obs::Counter &map_failures =
        obs::Registry::global().counter("trace_cache.map_failures");
    const std::uint64_t corrupt_before = corrupt.value();
    const std::uint64_t failures_before = map_failures.value();
    resetWarningCount();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
    EXPECT_EQ(corrupt.value(), corrupt_before + 1);
    EXPECT_EQ(map_failures.value(), failures_before + 1);
    EXPECT_GE(warningCount(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, SectionChecksumMismatchIsRejectedAsCorrupt)
{
    const std::string dir = makeCacheDir("badsum");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string path =
        cache.entryPath("fact", stored.contentHash);

    // Flip a payload byte inside the first section (sections start on
    // kSectionAlign boundaries right after the header): the section
    // table still parses, but the checksum sweep must catch the flip.
    patchByte(path, static_cast<std::streamoff>(kSectionAlign) + 1,
              0x01);

    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    obs::Counter &map_failures =
        obs::Registry::global().counter("trace_cache.map_failures");
    const std::uint64_t corrupt_before = corrupt.value();
    const std::uint64_t failures_before = map_failures.value();
    resetWarningCount();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
    EXPECT_EQ(corrupt.value(), corrupt_before + 1);
    EXPECT_EQ(map_failures.value(), failures_before + 1);
    EXPECT_GE(warningCount(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, MapEntryFileClassifiesCorruptVersusForeign)
{
    const std::string dir = makeCacheDir("classify");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string path =
        cache.entryPath("fact", stored.contentHash);

    CachedWorkload out;
    std::string error;
    MapFailure failure = MapFailure::None;
    ASSERT_TRUE(
        mapEntryFile(path, stored.contentHash, out, error, failure));
    EXPECT_EQ(failure, MapFailure::None);
    ASSERT_NE(out.mapped, nullptr);
    EXPECT_EQ(out.eventCount(), stored.stream.size());

    // Foreign: valid entry (header checksum resealed), undefined
    // feature bit.
    patchByte(path, 8, 0x01);
    test::resealEntryFile(path);
    out = CachedWorkload{};
    EXPECT_FALSE(
        mapEntryFile(path, stored.contentHash, out, error, failure));
    EXPECT_EQ(failure, MapFailure::Foreign);
    patchByte(path, 8, 0x01); // restore
    test::resealEntryFile(path);

    // Foreign: another format version -- the retired v1 inline entry,
    // a v2 entry without a header checksum, or a future v4 -- is
    // refused quietly and re-recorded, never reported as corrupt.
    static_assert(kEntryVersion == 3);
    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    // Masks over version 3: 1, 2 and 4.
    for (const unsigned char version_mask : {0x02, 0x01, 0x07}) {
        patchByte(path, 4, version_mask);
        out = CachedWorkload{};
        EXPECT_FALSE(mapEntryFile(path, stored.contentHash, out, error,
                                  failure));
        EXPECT_EQ(failure, MapFailure::Foreign) << error;
        const std::uint64_t corrupt_before = corrupt.value();
        resetWarningCount();
        EXPECT_FALSE(cache.load("fact", stored.contentHash, out));
        EXPECT_EQ(corrupt.value(), corrupt_before);
        EXPECT_EQ(warningCount(), 0u);
        patchByte(path, 4, version_mask); // restore
    }

    // Corrupt: the file ends mid-section.
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) - 9);
    out = CachedWorkload{};
    EXPECT_FALSE(
        mapEntryFile(path, stored.contentHash, out, error, failure));
    EXPECT_EQ(failure, MapFailure::Corrupt);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, EveryHeaderBitFlipIsRefused)
{
    // The header checksum seals the header and the section table: one
    // flipped bit anywhere in them -- run count, stats, max pc, a
    // section row, the checksum itself -- is refused as Corrupt (or
    // Foreign, for the version field), never served. Mapped without
    // an expected hash, as `branchlab replay` maps an exported file,
    // so not even the content hash is cross-checked.
    const std::string dir = makeCacheDir("flip_every_bit");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/fact.bltc";
    std::string error;
    ASSERT_TRUE(writeEntryFile(path, makeWorkload(), error)) << error;
    const std::string pristine = test::readFileBytes(path);
    const std::size_t sealed =
        headerChecksumOffset(kEntrySectionCount) + 8;
    ASSERT_LT(sealed, pristine.size());

    std::vector<std::string> accepted;
    for (std::size_t byte = 0; byte < sealed; ++byte) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::string flipped = pristine;
            flipped[byte] = static_cast<char>(flipped[byte] ^ (1u << bit));
            test::writeFileBytes(path, flipped);
            CachedWorkload out;
            MapFailure failure = MapFailure::None;
            if (mapEntryFile(path, std::nullopt, out, error, failure)) {
                accepted.push_back("byte " + std::to_string(byte) +
                                   " bit " + std::to_string(bit));
            } else {
                EXPECT_NE(failure, MapFailure::None);
            }
        }
    }
    EXPECT_TRUE(accepted.empty())
        << accepted.size() << " flips accepted, first: " << accepted[0];
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, WriteEntryFileWritesTheStoredEntry)
{
    // The file `branchlab record -o` exports is the cache's entry,
    // whether it comes from an owning stream (cold) or is copied from
    // the mapped hit (warm).
    const std::string dir = makeCacheDir("export");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string entry = test::readFileBytes(
        cache.entryPath("fact", stored.contentHash));
    CachedWorkload mapped;
    ASSERT_TRUE(cache.load("fact", stored.contentHash, mapped));
    ASSERT_NE(mapped.mapped, nullptr);
    const CachedWorkload *const inputs[] = {&stored, &mapped};
    for (const CachedWorkload *input : inputs) {
        SCOPED_TRACE(input->mapped ? "mapped" : "owning");
        const std::string exported = dir + "/exported.bltc";
        std::string error;
        ASSERT_TRUE(writeEntryFile(exported, *input, error)) << error;
        EXPECT_EQ(test::readFileBytes(exported), entry);
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, TruncatedFileIsNamedTruncated)
{
    // A valid entry cut anywhere past its header is refused as
    // Corrupt, and the diagnostic says why.
    const std::string dir = makeCacheDir("named_trunc");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);
    const std::string entry = test::readFileBytes(
        cache.entryPath("fact", stored.contentHash));
    const std::size_t header_end =
        headerChecksumOffset(kEntrySectionCount) + 8;
    ASSERT_GT(entry.size(), 5000u);
    const std::string cut = dir + "/cut.bltc";
    for (const std::size_t length :
         {header_end, header_end + 100, std::size_t{4096},
          std::size_t{5000}, entry.size() / 2}) {
        SCOPED_TRACE("cut at " + std::to_string(length));
        test::writeFileBytes(cut, entry.substr(0, length));
        CachedWorkload out;
        std::string error;
        MapFailure failure = MapFailure::None;
        EXPECT_FALSE(
            mapEntryFile(cut, std::nullopt, out, error, failure));
        EXPECT_EQ(failure, MapFailure::Corrupt);
        EXPECT_NE(error.find("truncated"), std::string::npos) << error;
        EXPECT_EQ(out.mapped, nullptr);
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, ByteCapEvictsLeastRecentlyUsedEntries)
{
    const std::string dir = makeCacheDir("evict");
    const CachedWorkload workload = makeWorkload();
    const TraceCache probe(dir);
    probe.store("aa", workload);
    const std::string path_a =
        probe.entryPath("aa", workload.contentHash);
    const std::uint64_t entry_bytes =
        std::filesystem::file_size(path_a);

    // Cap admits two entries but not three.
    const TraceCache cache(dir, 2 * entry_bytes + entry_bytes / 2);
    cache.store("bb", workload);
    const std::string path_b =
        cache.entryPath("bb", workload.contentHash);

    // Age "aa" well behind "bb" so the LRU order is unambiguous.
    const auto now = std::filesystem::file_time_type::clock::now();
    std::filesystem::last_write_time(path_a,
                                     now - std::chrono::hours(2));
    std::filesystem::last_write_time(path_b,
                                     now - std::chrono::hours(1));

    obs::Counter &evictions =
        obs::Registry::global().counter("trace_cache.evictions");
    obs::Counter &bytes_evicted =
        obs::Registry::global().counter("trace_cache.bytes_evicted");
    const std::uint64_t evictions_before = evictions.value();
    const std::uint64_t bytes_before = bytes_evicted.value();

    cache.store("cc", workload);
    EXPECT_FALSE(std::filesystem::exists(path_a));
    EXPECT_TRUE(std::filesystem::exists(path_b));
    EXPECT_TRUE(std::filesystem::exists(
        cache.entryPath("cc", workload.contentHash)));
    EXPECT_EQ(evictions.value(), evictions_before + 1);
    EXPECT_EQ(bytes_evicted.value(), bytes_before + entry_bytes);

    // The survivors still serve, and the tree is back under the cap.
    CachedWorkload out;
    EXPECT_TRUE(cache.load("cc", workload.contentHash, out));
    EXPECT_TRUE(cache.load("bb", workload.contentHash, out));
    std::uint64_t total = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file())
            total += entry.file_size();
    }
    EXPECT_LE(total, cache.maxBytes());
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, ResolveMaxBytesPrefersConfigThenEnvironment)
{
    unsetenv("BRANCHLAB_TRACE_CACHE_MAX_BYTES");
    EXPECT_EQ(resolveByteCap(123, kTraceCacheMaxBytesEnv), 123u);
    EXPECT_EQ(resolveByteCap(0, kTraceCacheMaxBytesEnv), 0u);
    setenv("BRANCHLAB_TRACE_CACHE_MAX_BYTES", "4096", 1);
    EXPECT_EQ(resolveByteCap(0, kTraceCacheMaxBytesEnv), 4096u);
    EXPECT_EQ(resolveByteCap(123, kTraceCacheMaxBytesEnv), 123u);
    unsetenv("BRANCHLAB_TRACE_CACHE_MAX_BYTES");
}

TEST(TraceCache, MismatchedContentHashIsNeverServed)
{
    const std::string dir = makeCacheDir("mismatch");
    const TraceCache cache(dir);
    const CachedWorkload stored = makeWorkload();
    cache.store("fact", stored);

    // Plant the entry under a different hash's filename (a stale or
    // tampered file): the embedded hash disagrees and the load must
    // miss rather than silently serve the stale stream.
    const std::uint64_t other_hash = stored.contentHash ^ 0xff;
    std::filesystem::copy_file(
        cache.entryPath("fact", stored.contentHash),
        cache.entryPath("fact", other_hash));
    resetWarningCount();
    CachedWorkload out;
    EXPECT_FALSE(cache.load("fact", other_hash, out));
    EXPECT_GE(warningCount(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, ResolveDirPrefersConfigThenEnvironment)
{
    unsetenv("BRANCHLAB_TRACE_CACHE");
    EXPECT_EQ(TraceCache::resolveDir("/configured"), "/configured");
    EXPECT_EQ(TraceCache::resolveDir(""), "");
    setenv("BRANCHLAB_TRACE_CACHE", "/from-env", 1);
    EXPECT_EQ(TraceCache::resolveDir(""), "/from-env");
    EXPECT_EQ(TraceCache::resolveDir("/configured"), "/configured");
    unsetenv("BRANCHLAB_TRACE_CACHE");
}

TEST(TraceCache, ContentHasherIsOrderSensitive)
{
    const auto digest = [](auto feed) {
        ContentHasher hasher;
        feed(hasher);
        return hasher.digest();
    };
    const std::uint64_t a =
        digest([](ContentHasher &h) { h.u64(1).u64(2); });
    const std::uint64_t b =
        digest([](ContentHasher &h) { h.u64(2).u64(1); });
    EXPECT_NE(a, b);
    // str() is length-prefixed: ("ab","c") != ("a","bc").
    const std::uint64_t c =
        digest([](ContentHasher &h) { h.str("ab").str("c"); });
    const std::uint64_t d =
        digest([](ContentHasher &h) { h.str("a").str("bc"); });
    EXPECT_NE(c, d);
}

// ---------------------------------------------------------------------
// Warm-path integration through recordWorkload and the runner.
// ---------------------------------------------------------------------

core::ExperimentConfig
cachedConfig(const std::string &dir)
{
    core::ExperimentConfig config;
    config.runsOverride = 2;
    config.runStaticSchemes = false;
    config.traceCacheDir = dir;
    return config;
}

TEST(TraceCacheIntegration, WarmRecordWorkloadIsBitIdentical)
{
    const std::string dir = makeCacheDir("record");
    const core::ExperimentConfig config = cachedConfig(dir);
    const workloads::Workload &workload =
        workloads::findWorkload("tee");

    const core::RecordedWorkload cold =
        core::recordWorkload(workload, config);
    EXPECT_FALSE(cold.cacheHit);
    const core::RecordedWorkload warm =
        core::recordWorkload(workload, config);
    EXPECT_TRUE(warm.cacheHit);
    // Warm hits arrive zero-copy mapped; replay consumers see the
    // same stream through traceView().
    EXPECT_NE(warm.mapped, nullptr);

    EXPECT_EQ(warm.contentHash, cold.contentHash);
    EXPECT_EQ(warm.runs, cold.runs);
    EXPECT_EQ(warm.stats.counters(), cold.stats.counters());
    ASSERT_EQ(warm.eventCount(), cold.eventCount());
    const std::vector<trace::BranchEvent> warm_events = warm.events();
    const std::vector<trace::BranchEvent> cold_events = cold.events();
    ASSERT_EQ(warm_events.size(), cold_events.size());
    for (std::size_t i = 0; i < warm_events.size(); ++i) {
        const trace::BranchEvent w = warm_events[i];
        const trace::BranchEvent c = cold_events[i];
        EXPECT_EQ(w.pc, c.pc);
        EXPECT_EQ(w.nextPc, c.nextPc);
        EXPECT_EQ(w.targetAddr, c.targetAddr);
        EXPECT_EQ(w.fallthroughAddr, c.fallthroughAddr);
        EXPECT_EQ(w.op, c.op);
        EXPECT_EQ(w.conditional, c.conditional);
        EXPECT_EQ(w.taken, c.taken);
        EXPECT_EQ(w.targetKnown, c.targetKnown);
    }
    EXPECT_EQ(warm.likelyMap.size(), cold.likelyMap.size());
    for (const auto &[pc, info] : cold.likelyMap) {
        const auto it = warm.likelyMap.find(pc);
        ASSERT_NE(it, warm.likelyMap.end());
        EXPECT_EQ(it->second.likelyTaken, info.likelyTaken);
        EXPECT_EQ(it->second.dominantTarget, info.dominantTarget);
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheIntegration, RecordedEntryIsTheSameColdAndWarm)
{
    // What `branchlab record -o` writes: the entry of a cold record
    // (VM pass) and of a warm hit (mapped, decoded) must be
    // byte-identical to each other and to the cache's own entry.
    const std::string dir = makeCacheDir("record_export");
    const core::ExperimentConfig config = cachedConfig(dir);
    const workloads::Workload &workload =
        workloads::findWorkload("tee");
    const auto exported = [&](bool expect_hit) {
        core::RecordedWorkload recorded =
            core::recordWorkload(workload, config);
        EXPECT_EQ(recorded.cacheHit, expect_hit);
        const std::string path = dir + "/exported.bltc";
        std::string error;
        EXPECT_TRUE(writeEntryFile(path, core::takeCacheEntry(recorded),
                                   error))
            << error;
        return test::readFileBytes(path);
    };
    const std::string cold = exported(false);
    const std::string warm = exported(true);
    EXPECT_EQ(cold, warm);
    const TraceCache cache(dir);
    EXPECT_EQ(cold, test::readFileBytes(cache.entryPath(
                        "tee", core::workloadContentHash(workload,
                                                         config))));
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheIntegration, ResolvedProfileMatchesTheRecordPass)
{
    // A cold record keeps the online profile; a warm hit folds the
    // mapped stream back into one. Both must agree.
    const std::string dir = makeCacheDir("profile");
    const core::ExperimentConfig config = cachedConfig(dir);
    const workloads::Workload &workload =
        workloads::findWorkload("wc");
    const core::RecordedWorkload cold =
        core::recordWorkload(workload, config);
    const core::RecordedWorkload warm =
        core::recordWorkload(workload, config);
    ASSERT_NE(cold.profile, nullptr);
    ASSERT_EQ(warm.profile, nullptr);

    std::optional<profile::ProgramProfile> unused;
    std::optional<profile::ProgramProfile> rebuilt;
    const profile::ProgramProfile &online =
        core::resolveProfile(cold, unused);
    EXPECT_EQ(&online, cold.profile.get());
    EXPECT_FALSE(unused.has_value());
    const profile::ProgramProfile &folded =
        core::resolveProfile(warm, rebuilt);
    EXPECT_EQ(&folded, &*rebuilt);

    const predict::LikelyMap a = online.buildLikelyMap();
    const predict::LikelyMap b = folded.buildLikelyMap();
    ASSERT_EQ(a.size(), b.size());
    for (const auto &[pc, info] : a) {
        const auto it = b.find(pc);
        ASSERT_NE(it, b.end());
        EXPECT_EQ(it->second.likelyTaken, info.likelyTaken);
        EXPECT_EQ(it->second.dominantTarget, info.dominantTarget);
    }
    for (const unsigned slots : {1u, 2u}) {
        EXPECT_EQ(profile::codeIncreaseFor(online, slots, 0.5),
                  profile::codeIncreaseFor(folded, slots, 0.5));
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheIntegration, WarmBenchmarkResultsAreBitIdentical)
{
    const std::string dir = makeCacheDir("bench");
    core::ExperimentConfig config = cachedConfig(dir);
    config.runCodeSize = true; // Table 5 must work from cached events
    const workloads::Workload &workload =
        workloads::findWorkload("cmp");

    const core::BenchmarkResult cold =
        core::ExperimentRunner(config).runBenchmark(workload);
    resetTraceCacheCounters();
    const core::BenchmarkResult warm =
        core::ExperimentRunner(config).runBenchmark(workload);
    EXPECT_EQ(traceCacheCounters().hits, 1u);
    EXPECT_EQ(traceCacheCounters().misses, 0u);

    EXPECT_EQ(warm.sbtb.accuracy, cold.sbtb.accuracy);
    EXPECT_EQ(warm.sbtb.missRatio, cold.sbtb.missRatio);
    EXPECT_EQ(warm.cbtb.accuracy, cold.cbtb.accuracy);
    EXPECT_EQ(warm.cbtb.missRatio, cold.cbtb.missRatio);
    EXPECT_EQ(warm.fs.accuracy, cold.fs.accuracy);
    EXPECT_EQ(warm.stats.instructions(), cold.stats.instructions());
    EXPECT_EQ(warm.stats.branches(), cold.stats.branches());
    EXPECT_EQ(warm.codeIncrease, cold.codeIncrease);
    EXPECT_EQ(warm.runs, cold.runs);
    EXPECT_EQ(warm.staticSize, cold.staticSize);
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheIntegration, CorruptEntryIsReRecordedAndOverwritten)
{
    const std::string dir = makeCacheDir("rerecord");
    const core::ExperimentConfig config = cachedConfig(dir);
    const workloads::Workload &workload =
        workloads::findWorkload("tee");

    const core::RecordedWorkload cold =
        core::recordWorkload(workload, config);
    EXPECT_FALSE(cold.cacheHit);

    // Truncate the published entry: the next record must treat it as
    // a miss, re-record, and overwrite it with a good entry.
    const trace::TraceCache cache(dir);
    const std::string path =
        cache.entryPath(cold.name, cold.contentHash);
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 3);

    resetWarningCount();
    const core::RecordedWorkload rerecorded =
        core::recordWorkload(workload, config);
    EXPECT_FALSE(rerecorded.cacheHit);
    EXPECT_GE(warningCount(), 1u);
    EXPECT_EQ(rerecorded.eventCount(), cold.eventCount());

    const core::RecordedWorkload warm =
        core::recordWorkload(workload, config);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.eventCount(), cold.eventCount());
    std::filesystem::remove_all(dir);
}

TEST(TraceCacheIntegration, DifferentConfigsUseDifferentEntries)
{
    core::ExperimentConfig config;
    config.runsOverride = 2;
    const workloads::Workload &workload =
        workloads::findWorkload("tee");
    const std::uint64_t base =
        core::workloadContentHash(workload, config);

    core::ExperimentConfig other_seed = config;
    other_seed.seed ^= 0x5a5a;
    EXPECT_NE(core::workloadContentHash(workload, other_seed), base);

    core::ExperimentConfig other_runs = config;
    other_runs.runsOverride = 3;
    EXPECT_NE(core::workloadContentHash(workload, other_runs), base);

    core::ExperimentConfig other_limit = config;
    other_limit.maxInstructionsPerRun /= 2;
    EXPECT_NE(core::workloadContentHash(workload, other_limit), base);

    // The hash is stable for an identical configuration.
    EXPECT_EQ(core::workloadContentHash(workload, config), base);
}

} // namespace
} // namespace branchlab::trace
