/**
 * @file
 * Persistent trace cache: record a workload's branch stream once,
 * store it on disk keyed by a content hash of everything that
 * determines it, and skip the VM record pass entirely on later runs.
 *
 * Entries are sharded two hex digits deep
 * (`<dir>/<hh>/<name>-<hash16>.bltc`, where `hh` is the leading byte
 * of the hash) so a large cache never piles thousands of files into
 * one directory. Each file is a BLTC sectioned entry
 * (trace/format.hh), the same file `branchlab record -o` exports and
 * `branchlab replay` maps: the recorded stream's columns plus the
 * profile data derived alongside it (run count, the TraceStats
 * counters, and the per-branch likely map used by the profiled-static
 * scheme and the Forward Semantic transform), laid out for mmap. A
 * warm load does not decode the stream at all -- it maps the file,
 * validates it (header checksum, section bounds, section checksums,
 * opcode range, content hash, feature bits), and hands replay a
 * zero-copy TraceView over the mapping (trace/view.hh).
 *
 * Invalidation is purely content-addressed: the key hashes the
 * program IR (printed with addresses), the data segment, the layout
 * footprint, the input suite, and the VM configuration (seed, runs,
 * instruction limit, format schema). Any change produces a different
 * hash, so a stale entry can never be served -- it is simply never
 * looked up again, and `load` additionally verifies the hash stored
 * inside the file. Corrupt or unreadable entries soft-fail (warn and
 * re-record); entries of another format version or carrying feature
 * bits this reader does not implement are refused the same way
 * (without the corruption warning -- they are foreign, not broken).
 * Nothing in the load path can abort a run.
 *
 * Writes, stale-temp reclamation and the byte cap go through the
 * shared durable-directory layer (support/durable_dir.hh): the entry
 * streams through writeEntryFile into a `<pid>-<sequence>` temp file,
 * is fsync'd and renamed into place, so concurrent runs, crashes, and
 * power loss leave either the old file or the complete new one. An
 * entry whose fsync fails is discarded, not published.
 *
 * Lifecycle: an optional byte cap (constructor argument,
 * `--trace-cache-max-bytes`, or BRANCHLAB_TRACE_CACHE_MAX_BYTES)
 * bounds the cache directory. After each store the cache reclaims
 * stale temps left by killed writers and evicts least-recently-used
 * entries (by mtime; loads touch their entry) until the total is back
 * under the cap, never evicting the entry just stored. 0 means
 * unbounded. The warm load path never walks the directory.
 *
 * Besides the functional TraceCacheCounters below, the cache reports
 * telemetry to obs::Registry::global(): `trace_cache.hits`,
 * `.misses`, `.stores`, `.corrupt_entries` (unreadable, undecodable,
 * or hash-mismatched entries), `.map_failures` (entries that could
 * not be mapped and validated -- a superset of the corrupt ones plus
 * foreign refusals), `.bytes_mapped`, `.bytes_written`, and the
 * durable layer's `.tmp_evicted`, `.tmp_reclaimed`, `.evictions` and
 * `.bytes_evicted`.
 */

#ifndef BRANCHLAB_TRACE_CACHE_HH
#define BRANCHLAB_TRACE_CACHE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/durable_dir.hh"
#include "trace/event.hh"
#include "trace/mmap.hh"
#include "trace/soa.hh"
#include "trace/stats.hh"
#include "trace/view.hh"

namespace branchlab::trace
{

/** Streaming FNV-1a 64-bit hasher for cache keys. */
class ContentHasher
{
  public:
    ContentHasher &u64(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>((value >> (8 * i)) & 0xff));
        return *this;
    }

    ContentHasher &bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i)
            byte(p[i]);
        return *this;
    }

    ContentHasher &str(std::string_view s)
    {
        u64(s.size());
        return bytes(s.data(), s.size());
    }

    std::uint64_t digest() const { return hash_; }

  private:
    void byte(unsigned char b)
    {
        hash_ ^= b;
        hash_ *= 0x100000001b3ULL;
    }

    std::uint64_t hash_ = 0xcbf29ce484222325ULL; // FNV offset basis
};

/** One profiled branch site, as persisted (predict-layer agnostic). */
struct CachedLikely
{
    ir::Addr pc = ir::kNoAddr;
    ir::Addr dominantTarget = ir::kNoAddr;
    bool likelyTaken = false;

    bool operator==(const CachedLikely &) const = default;
};

/**
 * A validated, mapped entry: the mapping plus resolved section
 * pointers. Immutable and self-contained -- consumers share it by
 * shared_ptr, and the stream stays readable even if the cache file is
 * evicted (the mapping pins the pages). All validation (bounds,
 * checksums, opcode range, feature bits) happened before this
 * object existed, so views over it may treat decode errors as fatal.
 */
struct MappedEntry
{
    std::unique_ptr<MappedFile> file;
    std::uint64_t featureBits = 0;
    std::uint64_t eventCount = 0;
    ir::Addr maxPc = 0;
    const std::uint8_t *ops = nullptr;
    const std::uint8_t *condPlane = nullptr;
    const std::uint8_t *takenPlane = nullptr;
    const std::uint8_t *targetKnownPlane = nullptr;
    const std::uint8_t *anomalyPlane = nullptr;
    const std::uint8_t *deltas = nullptr;
    std::size_t deltasLen = 0;
    const std::uint8_t *anomalyDeltas = nullptr;
    std::size_t anomalyDeltasLen = 0;

    /** A zero-copy view of the mapped stream. */
    TraceView
    view() const
    {
        return TraceView::mapped(
            ops, condPlane, takenPlane, targetKnownPlane, anomalyPlane,
            deltas, deltasLen, anomalyDeltas, anomalyDeltasLen,
            static_cast<std::size_t>(eventCount), maxPc);
    }
};

/**
 * Everything a warm run needs in place of the VM record pass. The
 * stream arrives in exactly one of two forms:
 *
 *  - `mapped` non-null (warm hits): zero-copy, `stream` empty;
 *  - `mapped` null: an owning SoaTrace in `stream` (cold records, and
 *    the input to TraceCache::store).
 *
 * traceView() papers over the difference for replay consumers.
 */
struct CachedWorkload
{
    std::uint64_t contentHash = 0;
    /** Number of profiling runs the stream covers. */
    std::uint32_t runs = 0;
    TraceCounters stats;
    std::vector<CachedLikely> likely;
    /** The owning stream (empty when `mapped` is set). */
    SoaTrace stream;
    /** The zero-copy mapped stream (warm hits). */
    std::shared_ptr<const MappedEntry> mapped;

    TraceView
    traceView() const
    {
        return mapped ? mapped->view() : TraceView::of(stream);
    }

    std::uint64_t
    eventCount() const
    {
        return mapped ? mapped->eventCount : stream.size();
    }
};

/** Why mapEntryFile refused an entry. */
enum class MapFailure
{
    None,
    /** Unreadable, malformed, checksum- or hash-mismatched. */
    Corrupt,
    /** Another format version, or feature bits this reader does not
     *  implement. */
    Foreign,
};

/**
 * Map and fully validate one entry file (zero-copy). On success fills
 * @p out and returns true. On failure returns false with a diagnostic
 * in @p error and the classification in @p failure; never warns, never
 * aborts, and never leaves a mapping behind. A given @p expected_hash
 * must match the embedded content hash (the cache passes its key);
 * std::nullopt accepts whatever hash the file carries (`branchlab
 * replay` of an exported file). Cache consumers go through
 * TraceCache::load; the CLI, the streaming bench
 * (bench/stream_smoke.cc) and the validation tests call this
 * directly.
 */
bool mapEntryFile(const std::string &path,
                  std::optional<std::uint64_t> expected_hash,
                  CachedWorkload &out, std::string &error,
                  MapFailure &failure);

/**
 * Write @p workload (its owning `stream`; never a mapped hit) as one
 * entry file at @p path. The trace cache calls it on a temp file it
 * then publishes durably; `branchlab record -o` calls it on the
 * user's path. Does not fsync or rename. @return false with a
 * diagnostic in @p error on any write failure.
 */
bool writeEntryFile(const std::string &path,
                    const CachedWorkload &workload, std::string &error);

/** Hit/miss/store totals across all caches in the process. */
struct TraceCacheCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
};

TraceCacheCounters traceCacheCounters();
void resetTraceCacheCounters();

/** Caps the cache when no cap is configured (see resolveByteCap). */
inline constexpr char kTraceCacheMaxBytesEnv[] =
    "BRANCHLAB_TRACE_CACHE_MAX_BYTES";

/**
 * A cache directory. Default-constructed (or empty-dir) caches are
 * disabled: load always misses and store is a no-op, so callers can
 * consult one unconditionally.
 */
class TraceCache
{
  public:
    TraceCache() = default;
    explicit TraceCache(std::string dir, std::uint64_t max_bytes = 0);

    /**
     * Pick the cache directory: @p configured if non-empty, else the
     * BRANCHLAB_TRACE_CACHE environment variable, else "" (disabled).
     */
    static std::string resolveDir(const std::string &configured);

    bool enabled() const { return !store_.root().empty(); }
    const std::string &dir() const { return store_.root(); }
    std::uint64_t maxBytes() const { return maxBytes_; }

    /** Path of the entry for @p name under @p content_hash (sharded;
     *  see the file comment). */
    std::string entryPath(const std::string &name,
                          std::uint64_t content_hash) const;

    /**
     * Look up @p name / @p content_hash. On a hit, fill @p out and
     * return true (the entry arrives mapped, zero-copy). Misses,
     * corrupt entries, hash mismatches, and foreign-feature entries
     * return false (corruption warns; a mismatch is treated as
     * corruption -- the filename already encodes the hash).
     */
    bool load(const std::string &name, std::uint64_t content_hash,
              CachedWorkload &out) const;

    /**
     * Persist @p workload (its owning `stream`) as the entry for
     * @p name and publish it durably. Failures warn and leave the
     * cache unchanged. A successful store then reclaims stale temps
     * and evicts LRU entries until the cache fits maxBytes().
     */
    void store(const std::string &name,
               const CachedWorkload &workload) const;

  private:
    DurableDir store_;
    std::uint64_t maxBytes_ = 0;
};

} // namespace branchlab::trace

#endif // BRANCHLAB_TRACE_CACHE_HH
