#include "trace/cache.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metrics.hh"
#include "support/le_codec.hh"
#include "support/logging.hh"
#include "trace/format.hh"
#include "trace/varint.hh"

namespace branchlab::trace
{

namespace
{

// Functional counters (traceCacheCounters(): perf_engine's warm-run
// check and the CI determinism step depend on them), kept separate
// from telemetry so disabling telemetry cannot break them.
std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_misses{0};
std::atomic<std::uint64_t> g_stores{0};

/** Telemetry handles (see obs/metrics.hh for the naming scheme). */
struct CacheTelemetry
{
    obs::Counter &hits =
        obs::Registry::global().counter("trace_cache.hits");
    obs::Counter &misses =
        obs::Registry::global().counter("trace_cache.misses");
    obs::Counter &stores =
        obs::Registry::global().counter("trace_cache.stores");
    obs::Counter &corrupt =
        obs::Registry::global().counter("trace_cache.corrupt_entries");
    obs::Counter &mapFailures =
        obs::Registry::global().counter("trace_cache.map_failures");
    obs::Counter &bytesMapped =
        obs::Registry::global().counter("trace_cache.bytes_mapped");
    obs::Counter &bytesWritten =
        obs::Registry::global().counter("trace_cache.bytes_written");
};

CacheTelemetry &
cacheTelemetry()
{
    static CacheTelemetry *telemetry = new CacheTelemetry;
    return *telemetry;
}

std::string
entryFileName(const std::string &name, std::uint64_t content_hash)
{
    return name + '-' + hash16(content_hash) + ".bltc";
}

const char *
sectionName(std::size_t s)
{
    static const char *const kNames[kEntrySectionCount] = {
        "likely",        "ops",          "cond-plane",
        "taken-plane",   "tknown-plane", "anomaly-plane",
        "deltas",        "anomaly-deltas"};
    return kNames[s];
}

/**
 * The derived columns of an entry: the anomalous-next bit-plane and
 * the two varint delta sections. The remaining columns are verbatim
 * copies of the SoaTrace planes.
 */
void
encodeDeltaColumns(const SoaTrace &events, std::string &anomaly_plane,
                   std::string &deltas, std::string &anomalies)
{
    const std::size_t n = events.size();
    const std::size_t plane_bytes = (n + 7) / 8;
    const std::vector<ir::Addr> &pc = events.pc();
    const std::vector<ir::Addr> &next_pc = events.nextPc();
    const std::vector<ir::Addr> &target = events.targetAddr();
    const std::vector<ir::Addr> &fall = events.fallthroughAddr();

    anomaly_plane.assign(plane_bytes, '\0');
    // One delta triple per event, interleaved so the decoder fills
    // each event in a single sequential pass (three separate columns
    // would make it re-walk the multi-hundred-megabyte trace once
    // per column).
    deltas.clear();
    deltas.reserve(6 * n); // small deltas dominate real traces
    anomalies.clear();

    ir::Addr prev_pc = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const ir::Addr implied = events.taken(i) ? target[i] : fall[i];
        if (next_pc[i] != implied) {
            anomaly_plane[i >> 3] = static_cast<char>(
                static_cast<unsigned char>(anomaly_plane[i >> 3]) |
                (1u << (i & 7)));
            putVarint(anomalies, zigzag(next_pc[i] - pc[i]));
        }
        putVarint(deltas, zigzag(pc[i] - prev_pc));
        putVarint(deltas, zigzag(target[i] - pc[i]));
        putVarint(deltas, zigzag(fall[i] - pc[i]));
        prev_pc = pc[i];
    }
}

} // namespace

bool
writeEntryFile(const std::string &path, const CachedWorkload &workload,
               std::string &error)
{
    if (workload.mapped) {
        // A mapped entry was fully validated when it was mapped: its
        // bytes are the entry, so copy them rather than re-encode.
        const MappedFile &file = *workload.mapped->file;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(file.data()),
                  static_cast<std::streamsize>(file.size()));
        out.flush();
        if (!out) {
            error = "entry write failed";
            return false;
        }
        return true;
    }
    EntryWriter writer(path);
    if (!writer.ok()) {
        error = "cannot open for writing";
        return false;
    }
    const SoaTrace &stream = workload.stream;
    const std::size_t n = stream.size();
    const std::size_t plane_bytes = (n + 7) / 8;
    writer.setMeta(workload.contentHash, workload.runs, workload.stats,
                   n, stream.maxPc(), workload.likely.size());
    std::string likely_bytes;
    likely_bytes.reserve(kLikelyRecordBytes * workload.likely.size());
    for (const CachedLikely &entry : workload.likely) {
        appendLe64(likely_bytes, entry.pc);
        appendLe64(likely_bytes, entry.dominantTarget);
        likely_bytes.push_back(entry.likelyTaken ? 1 : 0);
    }
    writer.writeSection(EntrySection::Likely, likely_bytes.data(),
                        likely_bytes.size());
    // The stream's columns go to disk verbatim; only the anomaly
    // plane and the delta columns are derived here.
    writer.writeSection(EntrySection::Ops, stream.ops().data(), n);
    writer.writeSection(EntrySection::CondPlane,
                        stream.conditionalPlane().data(), plane_bytes);
    writer.writeSection(EntrySection::TakenPlane,
                        stream.takenPlane().data(), plane_bytes);
    writer.writeSection(EntrySection::TargetKnownPlane,
                        stream.targetKnownPlane().data(), plane_bytes);
    std::string anomaly_plane;
    std::string deltas;
    std::string anomalies;
    encodeDeltaColumns(stream, anomaly_plane, deltas, anomalies);
    writer.writeSection(EntrySection::AnomalyPlane, anomaly_plane.data(),
                        anomaly_plane.size());
    writer.writeSection(EntrySection::Deltas, deltas.data(),
                        deltas.size());
    writer.writeSection(EntrySection::AnomalyDeltas, anomalies.data(),
                        anomalies.size());
    return writer.finish(error);
}

bool
mapEntryFile(const std::string &path,
             std::optional<std::uint64_t> expected_hash,
             CachedWorkload &out, std::string &error,
             MapFailure &failure)
{
    failure = MapFailure::Corrupt;
    std::unique_ptr<MappedFile> file = MappedFile::open(path, error);
    if (!file)
        return false;
    const std::uint8_t *data = file->data();
    const std::size_t size = file->size();
    if (size < sizeof(kEntryMagic) + 4 ||
        std::memcmp(data, kEntryMagic, sizeof(kEntryMagic)) != 0) {
        error = "bad magic";
        return false;
    }
    if (size < kEntryHeaderBytes) {
        error = "truncated header";
        return false;
    }
    const std::uint32_t version = loadLe32(data + sizeof(kEntryMagic));
    if (version != kEntryVersion) {
        // A whole header of another format generation (the retired v1
        // inline entry, v2 without a header checksum, or a newer
        // writer) is not damage: refuse quietly and re-record.
        failure = MapFailure::Foreign;
        error = "unsupported entry version " + std::to_string(version);
        return false;
    }

    EntryHeader header;
    error = decodeEntryHeader(data, size, header);
    if (!error.empty())
        return false;
    if ((header.featureBits & ~kKnownFeatureBits) != 0) {
        failure = MapFailure::Foreign;
        std::ostringstream os;
        os << "unknown feature bits 0x" << std::hex
           << (header.featureBits & ~kKnownFeatureBits);
        error = os.str();
        return false;
    }
    // Every section must lie inside the file. A file cut short shows
    // first as sections running past its end: name that before the
    // plausibility checks below can trip on it.
    std::uint64_t needed = 0;
    for (const SectionRecord &section : header.sections) {
        const std::uint64_t end =
            section.length > UINT64_MAX - section.offset
                ? UINT64_MAX
                : section.offset + section.length;
        needed = std::max(needed, end);
    }
    if (needed > size) {
        error = "truncated entry (file " + std::to_string(size) +
                " bytes, sections need " + std::to_string(needed) + ")";
        return false;
    }
    if (header.eventCount > size) {
        error = "implausible event count";
        return false;
    }
    if (header.likelyCount > size / kLikelyRecordBytes) {
        error = "implausible likely-map count";
        return false;
    }

    const std::uint64_t plane_bytes = (header.eventCount + 7) / 8;
    const std::uint64_t expected_length[kEntrySectionCount] = {
        header.likelyCount * kLikelyRecordBytes, // likely
        header.eventCount,                       // ops
        plane_bytes,                             // cond plane
        plane_bytes,                             // taken plane
        plane_bytes,                             // target-known plane
        plane_bytes,                             // anomaly plane
        0,                                       // deltas: any
        0,                                       // anomaly deltas: any
    };
    for (std::size_t s = 0; s < kEntrySectionCount; ++s) {
        const SectionRecord &section = header.sections[s];
        if (section.offset % kSectionAlign != 0) {
            error = std::string("misaligned section ") +
                    sectionName(s);
            return false;
        }
        if (s < static_cast<std::size_t>(EntrySection::Deltas) &&
            section.length != expected_length[s]) {
            error = std::string("section ") + sectionName(s) +
                    " has wrong length (" +
                    std::to_string(section.length) + ", expected " +
                    std::to_string(expected_length[s]) + ")";
            return false;
        }
        // Every section is verified up front, so the mapped replay
        // path can never hit torn bytes (or SIGBUS on a truncation)
        // later.
        if (checksum64(data + section.offset, section.length) !=
            section.checksum) {
            error = std::string("checksum mismatch in section ") +
                    sectionName(s);
            return false;
        }
    }
    if (expected_hash && header.contentHash != *expected_hash) {
        error = "mismatched content hash";
        return false;
    }

    const std::uint8_t *ops =
        data + header.section(EntrySection::Ops).offset;
    for (std::uint64_t i = 0; i < header.eventCount; ++i) {
        if (ops[i] >= ir::kNumOpcodes) {
            error = "bad opcode " + std::to_string(ops[i]);
            return false;
        }
    }

    out.contentHash = header.contentHash;
    out.runs = header.runs;
    out.stats = header.stats;
    out.likely.clear();
    out.likely.reserve(static_cast<std::size_t>(header.likelyCount));
    const std::uint8_t *likely =
        data + header.section(EntrySection::Likely).offset;
    for (std::uint64_t i = 0; i < header.likelyCount; ++i) {
        CachedLikely entry;
        entry.pc = loadLe64(likely);
        entry.dominantTarget = loadLe64(likely + 8);
        entry.likelyTaken = likely[16] != 0;
        out.likely.push_back(entry);
        likely += kLikelyRecordBytes;
    }
    out.stream.clear();

    auto mapped = std::make_shared<MappedEntry>();
    mapped->featureBits = header.featureBits;
    mapped->eventCount = header.eventCount;
    mapped->maxPc = header.maxPc;
    mapped->ops = ops;
    mapped->condPlane =
        data + header.section(EntrySection::CondPlane).offset;
    mapped->takenPlane =
        data + header.section(EntrySection::TakenPlane).offset;
    mapped->targetKnownPlane =
        data + header.section(EntrySection::TargetKnownPlane).offset;
    mapped->anomalyPlane =
        data + header.section(EntrySection::AnomalyPlane).offset;
    mapped->deltas =
        data + header.section(EntrySection::Deltas).offset;
    mapped->deltasLen = static_cast<std::size_t>(
        header.section(EntrySection::Deltas).length);
    mapped->anomalyDeltas =
        data + header.section(EntrySection::AnomalyDeltas).offset;
    mapped->anomalyDeltasLen = static_cast<std::size_t>(
        header.section(EntrySection::AnomalyDeltas).length);
    mapped->file = std::move(file);
    out.mapped = std::move(mapped);
    failure = MapFailure::None;
    return true;
}

TraceCacheCounters
traceCacheCounters()
{
    return {g_hits.load(), g_misses.load(), g_stores.load()};
}

void
resetTraceCacheCounters()
{
    g_hits.store(0);
    g_misses.store(0);
    g_stores.store(0);
}

std::string
TraceCache::resolveDir(const std::string &configured)
{
    if (!configured.empty())
        return configured;
    if (const char *env = std::getenv("BRANCHLAB_TRACE_CACHE"))
        return env;
    return "";
}

TraceCache::TraceCache(std::string dir, std::uint64_t max_bytes)
    : store_(std::move(dir), "trace_cache", ".bltc"), maxBytes_(max_bytes)
{}

std::string
TraceCache::entryPath(const std::string &name,
                      std::uint64_t content_hash) const
{
    return store_.shardPath(content_hash,
                            entryFileName(name, content_hash));
}

bool
TraceCache::load(const std::string &name, std::uint64_t content_hash,
                 CachedWorkload &out) const
{
    if (!enabled())
        return false;
    const std::string path = entryPath(name, content_hash);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        ++g_misses;
        cacheTelemetry().misses.add(1);
        blab_inform("trace cache miss: ", name);
        return false;
    }
    CachedWorkload loaded;
    std::string error;
    MapFailure failure = MapFailure::None;
    if (!mapEntryFile(path, content_hash, loaded, error, failure)) {
        ++g_misses;
        cacheTelemetry().misses.add(1);
        cacheTelemetry().mapFailures.add(1);
        if (failure == MapFailure::Foreign) {
            // Foreign, not broken: refuse quietly and re-record.
            blab_inform("trace cache entry '", path,
                        "' is foreign to this reader (", error,
                        "); re-recording");
        } else {
            cacheTelemetry().corrupt.add(1);
            blab_warn("trace cache entry '", path, "' is corrupt (",
                      error, "); re-recording");
        }
        return false;
    }
    out = std::move(loaded);
    cacheTelemetry().bytesMapped.add(out.mapped->file->size());
    // LRU touch: a hit makes the entry recently used.
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now(), ec);
    ++g_hits;
    cacheTelemetry().hits.add(1);
    blab_inform("trace cache hit: ", name, " (", out.eventCount(),
                " events, mapped)");
    return true;
}

void
TraceCache::store(const std::string &name,
                  const CachedWorkload &workload) const
{
    if (!enabled())
        return;
    const std::string path = entryPath(name, workload.contentHash);
    std::uint64_t entry_size = 0;
    const auto write = [&](const std::string &tmp) {
        std::string error;
        if (!writeEntryFile(tmp, workload, error)) {
            blab_warn("cannot write trace cache entry '", tmp, "' (",
                      error, ")");
            return false;
        }
        std::error_code ec;
        entry_size = std::filesystem::file_size(tmp, ec);
        return true;
    };
    // An entry that cannot be synced is discarded rather than
    // published: a cache miss costs one re-record, a torn entry that
    // survives a power loss would cost a corruption warning.
    const DurableDir::PublishResult published = store_.publish(
        path, write, DurableDir::OnSyncFailure::Discard);
    if (!published.published) {
        if (!published.synced)
            blab_warn("cannot sync trace cache entry '", path, "'");
        return;
    }
    ++g_stores;
    cacheTelemetry().stores.add(1);
    cacheTelemetry().bytesWritten.add(entry_size);
    blab_inform("trace cache store: ", name, " (",
                workload.stream.size(), " events)");
    store_.reclaimStaleTemps();
    store_.enforceByteCap(maxBytes_, {path});
}

} // namespace branchlab::trace
