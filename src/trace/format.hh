/**
 * @file
 * The BLTC sectioned trace-entry format: BranchLab's one on-disk
 * trace format. It is the trace cache's entry (trace/cache.cc), the
 * file `branchlab record -o` exports and `branchlab replay` maps, and
 * what the out-of-core synthetic generator writes
 * (bench/stream_smoke.cc).
 *
 * File layout (all integers little-endian):
 *
 *   header:
 *     magic "BLTC", u32 version = 3, u64 feature bits,
 *     u64 content hash, u32 runs, u32 section count (>= 8),
 *     u64 x5 trace stats (instructions, branches, conditional,
 *     condTaken, uncondKnown), u64 event count, u64 max pc,
 *     u64 likely count
 *   section table: section count x { u64 offset, u64 length,
 *     u64 checksum }
 *   header checksum: u64 checksum64 over every byte before it (the
 *     header and the whole section table)
 *   sections, each starting on a kSectionAlign boundary, in order:
 *     0 likely      17 bytes per profiled branch (pc, dominant
 *                   target, likely-taken byte)
 *     1 ops         one opcode byte per event
 *     2 cond plane  LSB-first bit-plane, ceil(n/8) bytes
 *     3 taken plane
 *     4 target-known plane
 *     5 anomaly plane ("anomalous next" bits, same layout)
 *     6 deltas      interleaved zig-zag varint triples per event
 *                   (pc vs prev pc, target vs pc, fallthrough vs pc)
 *     7 anomaly deltas  one zig-zag varint (nextPc vs pc) per set
 *                   anomaly bit
 *
 * Section alignment means a mapped reader hands the ops bytes and the
 * four bit-planes to the replay kernels directly out of the mapping
 * -- no copy -- while the two varint sections decode lazily, one
 * strip-mined block at a time (trace/view.hh).
 *
 * Compatibility rules:
 *  - any version other than kEntryVersion (the retired version 1
 *    inline entry, version 2 without a header checksum, or a newer
 *    writer) is foreign: the cache refuses it quietly and re-records.
 *  - feature bits declare semantics a reader MUST understand to use
 *    the entry. A reader that sees a bit outside kKnownFeatureBits
 *    refuses the entry cleanly (the cache re-records); a writer never
 *    sets bits it does not implement. Additive, ignorable extensions
 *    instead append sections (section count > 8) without a bit: old
 *    readers read the first eight sections and ignore the rest.
 *  - checksum64 (below) covers the header and section table as one
 *    block and each section's bytes on its own; readers verify the
 *    header checksum before trusting any header field and every
 *    section checksum at map time, so a torn or bit-flipped entry is
 *    refused up front and can never SIGBUS a replay later.
 */

#ifndef BRANCHLAB_TRACE_FORMAT_HH
#define BRANCHLAB_TRACE_FORMAT_HH

#include <array>
#include <cstdint>
#include <fstream>
#include <string>

#include "ir/types.hh"
#include "trace/stats.hh"

namespace branchlab::trace
{

inline constexpr char kEntryMagic[4] = {'B', 'L', 'T', 'C'};
inline constexpr std::uint32_t kEntryVersion = 3;

/** Sections start on this boundary (one page on every platform we
 *  target), so plane pointers into a mapping are byte-aligned and
 *  page-cache friendly. */
inline constexpr std::uint64_t kSectionAlign = 4096;

/** The eight sections every entry carries, in file order. */
enum class EntrySection : std::size_t
{
    Likely = 0,
    Ops = 1,
    CondPlane = 2,
    TakenPlane = 3,
    TargetKnownPlane = 4,
    AnomalyPlane = 5,
    Deltas = 6,
    AnomalyDeltas = 7,
};

inline constexpr std::size_t kEntrySectionCount = 8;

/** Bytes per persisted likely-map record (u64 pc, u64 dominant
 *  target, u8 likely-taken). */
inline constexpr std::size_t kLikelyRecordBytes = 17;

/** Feature bits this reader implements. Currently none are defined;
 *  any set bit marks a foreign entry and is refused at map time. */
inline constexpr std::uint64_t kKnownFeatureBits = 0;

/** Fixed header bytes before the section table. */
inline constexpr std::size_t kEntryHeaderBytes = 96;

/** Bytes per section-table row. */
inline constexpr std::size_t kSectionRecordBytes = 24;

/** Offset of the header checksum in an entry whose table has
 *  @p section_count rows: the checksum covers every byte before it. */
inline constexpr std::uint64_t
headerChecksumOffset(std::uint64_t section_count)
{
    return kEntryHeaderBytes + section_count * kSectionRecordBytes;
}

/** One section-table row. */
struct SectionRecord
{
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint64_t checksum = 0;
};

/** The decoded header plus its section table. */
struct EntryHeader
{
    std::uint64_t featureBits = 0;
    std::uint64_t contentHash = 0;
    std::uint32_t runs = 0;
    std::uint32_t sectionCount = kEntrySectionCount;
    TraceCounters stats;
    std::uint64_t eventCount = 0;
    ir::Addr maxPc = 0;
    std::uint64_t likelyCount = 0;
    /** The first kEntrySectionCount rows (extra sections, if any, are
     *  additive and ignored by this reader). */
    std::array<SectionRecord, kEntrySectionCount> sections{};

    const SectionRecord &
    section(EntrySection s) const
    {
        return sections[static_cast<std::size_t>(s)];
    }
};

/**
 * 64-bit section checksum: FNV-1a over little-endian 8-byte words
 * (the tail word zero-padded), with the byte length folded in last so
 * same-prefix sections of different lengths cannot collide. Word-wise
 * because map-time validation reads every section of a multi-hundred-
 * megabyte entry; the byte-at-a-time FNV would dominate the warm
 * path it exists to protect.
 */
std::uint64_t checksum64(const void *data, std::size_t size);

/** @return @p offset rounded up to the next section boundary. */
inline std::uint64_t
alignSection(std::uint64_t offset)
{
    return (offset + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

/**
 * Parse a header (magic and version already verified by the caller)
 * out of @p data / @p size. Validates only the header's own shape: a
 * section table and header checksum that fit, a matching header
 * checksum (checked before any other field is trusted), and section
 * count >= 8. @return empty string on success, else a diagnostic.
 */
std::string decodeEntryHeader(const std::uint8_t *data,
                              std::size_t size, EntryHeader &out);

/**
 * Streaming entry writer: sections are written in order, in chunks of
 * any size, and the header (with offsets, lengths, and checksums
 * accumulated along the way, sealed by the header checksum) is
 * patched in by finish().
 * Nothing is buffered beyond the current chunk, so a generator can
 * emit entries far larger than memory (bench/stream_smoke.cc).
 *
 * The writer does NOT fsync or rename; atomic publication is the
 * caller's job (trace/cache.cc publishes through support/durable_dir).
 */
class EntryWriter
{
  public:
    explicit EntryWriter(const std::string &path);

    /** False after any stream failure; finish() reports it too. */
    bool ok() const { return static_cast<bool>(file_); }

    /** Header fields (any time before finish()). */
    void
    setMeta(std::uint64_t content_hash, std::uint32_t runs,
            const TraceCounters &stats, std::uint64_t event_count,
            ir::Addr max_pc, std::uint64_t likely_count,
            std::uint64_t feature_bits = 0)
    {
        header_.contentHash = content_hash;
        header_.runs = runs;
        header_.stats = stats;
        header_.eventCount = event_count;
        header_.maxPc = max_pc;
        header_.likelyCount = likely_count;
        header_.featureBits = feature_bits;
    }

    /** Start section @p s; sections must arrive in enum order. */
    void beginSection(EntrySection s);

    /** Append @p size bytes to the open section. */
    void write(const void *data, std::size_t size);

    void write(const std::string &bytes)
    {
        write(bytes.data(), bytes.size());
    }

    /** Close the open section, recording its length and checksum. */
    void endSection();

    /** One-call section helper. */
    void
    writeSection(EntrySection s, const void *data, std::size_t size)
    {
        beginSection(s);
        write(data, size);
        endSection();
    }

    /**
     * Pad the file, patch the header, section table and header
     * checksum, and flush.
     * @return true on success; on failure @p error describes the
     * write that broke.
     */
    bool finish(std::string &error);

    /** Bytes the finished entry occupies (valid after finish()). */
    std::uint64_t bytesWritten() const { return bytesWritten_; }

  private:
    void pad(std::uint64_t target_offset);

    std::fstream file_;
    EntryHeader header_;
    std::uint64_t offset_ = 0;
    std::uint64_t bytesWritten_ = 0;
    int openSection_ = -1;
    int nextSection_ = 0;
    // Incremental checksum64 state for the open section (word-wise
    // FNV over a carry buffer for non-multiple-of-8 chunks).
    std::uint64_t sumHash_ = 0;
    std::uint64_t sumLength_ = 0;
    std::array<std::uint8_t, 8> sumCarry_{};
    std::size_t sumCarryLen_ = 0;
};

} // namespace branchlab::trace

#endif // BRANCHLAB_TRACE_FORMAT_HH
