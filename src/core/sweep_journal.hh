/**
 * @file
 * The sweep resume journal: a segmented, content-addressed store of
 * completed grid points.
 *
 *  - Completed points accumulate in a streaming writer and are sealed
 *    into BLSG *segments* (many records per file) under two-hex-digit
 *    shard subdirectories, named by the segment's content hash.
 *  - Every segment carries a feature-bit-versioned header and a
 *    checksum64 per record; resume `mmap`s each segment once,
 *    validates it, and serves every point lookup from the in-memory
 *    index -- no per-point file I/O.
 *  - Sealing, stale-temp reclamation (on open) and the byte cap go
 *    through the shared durable-directory layer
 *    (support/durable_dir.hh): a pid+sequence temp file, fsync of the
 *    file, atomic rename, fsync of the directory. A crash leaves
 *    either nothing or a complete segment (plus at most the unsealed
 *    in-memory tail, which the resumed run simply re-evaluates). On a
 *    filesystem that cannot fsync, segments are still published
 *    behind a warn-once latch; the record checksums catch a torn one.
 *  - Validation failures are classified exactly like trace/cache.*:
 *    **Foreign** (a version or feature bit this reader does not know;
 *    quiet counter, clean re-evaluate) vs **Corrupt** (actual damage;
 *    warning + counter). A corrupt record abandons the rest of its
 *    segment but keeps the verified prefix. Files of the retired
 *    per-point format (`point-<key>.blsj`) are never read: their
 *    points simply re-evaluate.
 *  - `--sweep-journal-max-bytes` / BRANCHLAB_SWEEP_JOURNAL_MAX_BYTES
 *    cap the store; eviction is LRU by mtime (a segment's mtime is
 *    touched once per flush in which a load hit it) with a cost-aware
 *    tie-break (fewer records per byte evict first) and never touches
 *    a segment sealed by this run.
 *
 * Telemetry: sweep.journal.{stores, segments, corrupt, foreign,
 * bytes_mapped} plus the durable layer's {evictions, bytes_evicted,
 * tmp_reclaimed, tmp_evicted}.
 */

#ifndef BRANCHLAB_CORE_SWEEP_JOURNAL_HH
#define BRANCHLAB_CORE_SWEEP_JOURNAL_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/durable_dir.hh"

namespace branchlab::trace
{
class MappedFile;
}

namespace branchlab::core
{

/** Everything measured for one workload at one grid point. */
struct SweepCell
{
    double sbtbAccuracy = 0.0;
    double sbtbMissRatio = 0.0;
    double cbtbAccuracy = 0.0;
    double cbtbMissRatio = 0.0;
    double fsAccuracy = 0.0;
    /** Table 5's relative code-size increase at the point's
     *  (fsSlots, traceThreshold). */
    double codeIncrease = 0.0;

    bool operator==(const SweepCell &) const = default;
};

/** Bump when the cell encoding or cell semantics change; old entries
 *  then classify as Foreign and simply re-evaluate. v2 added the FS
 *  optimizer level to the point key. */
inline constexpr std::uint64_t kJournalSchemaVersion = 2;

/** Segment container version: the layout of the BLSG header and
 *  record framing. Orthogonal to the schema above (which covers what
 *  a cell means). */
inline constexpr std::uint32_t kJournalSegmentVersion = 1;

/** Feature bits this reader understands. None are defined yet; a
 *  future writer that sets one marks its segments as requiring that
 *  feature, and this reader refuses them as Foreign (never as
 *  corrupt). */
inline constexpr std::uint64_t kJournalKnownFeatureBits = 0;

inline constexpr std::size_t kJournalSegmentHeaderBytes = 64;
/** Bytes per encoded cell (6 little-endian doubles). */
inline constexpr std::size_t kJournalCellBytes = 48;
/** Per-record framing: key(8) + cellCount(4) + pad(4) ... crc(8). */
inline constexpr std::size_t kJournalRecordOverheadBytes = 24;

/** Caps the journal when no cap is configured (see
 *  resolveByteCap). */
inline constexpr char kJournalMaxBytesEnv[] =
    "BRANCHLAB_SWEEP_JOURNAL_MAX_BYTES";

/**
 * The resume journal. Default-constructed (empty-dir) journals are
 * disabled no-ops. `store()` is thread-safe (the sweep's worker
 * threads journal points concurrently); `open()`, `load()` and
 * `flush()` are serialized by the same lock.
 */
class SweepJournal
{
  public:
    SweepJournal();
    explicit SweepJournal(std::string dir, std::uint64_t maxBytes = 0);
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    bool enabled() const { return !store_.root().empty(); }
    const std::string &dir() const { return store_.root(); }
    std::uint64_t maxBytes() const { return maxBytes_; }

    /**
     * Bring the journal up: reclaim stale temp files left by killed
     * runs, then map and validate every segment and build the key
     * index. Idempotent; load() and store() call it lazily.
     */
    void open();

    /** Load the cells stored under @p key: points this run stored
     *  first, else the mapped segment index. False on miss (damaged
     *  or foreign segments were already reported by open()). A hit
     *  only marks its segment; the LRU mtime touch waits for
     *  flush(). */
    bool load(std::uint64_t key, std::vector<SweepCell> &cells);

    /** Buffer @p cells under @p key; segments seal automatically when
     *  the pending tail grows past the flush threshold and on
     *  flush()/destruction. Thread-safe. */
    void store(std::uint64_t key, const std::vector<SweepCell> &cells);

    /** Seal the pending tail (fsync + atomic rename), mark every
     *  segment a load hit since the last flush as recently used, and
     *  enforce the byte cap. Called by runSweep() after the grid
     *  completes, by the daemon after each miss, and by the
     *  destructor. */
    void flush();

    /** Mapped-segment observability for tests and the perf
     *  harness. */
    std::size_t mappedSegments() const;
    std::size_t indexedRecords() const;

  private:
    struct Segment;

    void ensureOpenLocked();
    void mapSegmentsLocked();
    void indexSegmentLocked(std::size_t segment_index);
    void sealLocked();
    /** Set the mtime of every segment a load hit since the last
     *  flush: the byte cap's LRU order. */
    void touchHitSegmentsLocked();

    mutable std::mutex mutex_;
    DurableDir store_;
    std::uint64_t maxBytes_ = 0;
    bool opened_ = false;

    /** A record inside a mapped segment: a borrowed pointer to its
     *  cell bytes (kept alive by segments_). */
    struct IndexEntry
    {
        std::size_t segment = 0;
        const std::uint8_t *cells = nullptr;
        std::uint32_t count = 0;
    };

    std::vector<Segment> segments_;
    std::unordered_map<std::uint64_t, IndexEntry> index_;
    /** Points stored by this run (pending or already sealed): owned
     *  copies, so a load never re-reads what this process wrote. */
    std::unordered_map<std::uint64_t, std::vector<SweepCell>> owned_;
    /** Encoded records awaiting their segment. */
    std::string pendingRecords_;
    std::uint32_t pendingCount_ = 0;
    /** Segments sealed by this run -- never evicted by this run. */
    std::vector<std::string> sealedPaths_;
};

} // namespace branchlab::core

#endif // BRANCHLAB_CORE_SWEEP_JOURNAL_HH
