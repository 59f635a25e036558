/**
 * @file
 * Structure-of-arrays branch-trace buffer: the replay engine's native
 * representation of a recorded stream.
 *
 * A replayed stream is read millions of times by code that touches
 * only a few fields per event (a BTB kernel reads pc, the taken bit,
 * and one target per event), so the array-of-structs
 * std::vector<BranchEvent> wastes most of every cache line it pulls.
 * SoaTrace keeps each field in its own column -- delta-friendly
 * address arrays plus the same LSB-first bit-planes the BLTC entry
 * (trace/format.hh) stores, so the entry writer copies the planes to
 * disk verbatim and a mapped reader hands them to replay without a
 * copy. The entry is also the CLI's export format (`branchlab record
 * -o`), sealed by a header checksum like every cache entry.
 *
 * The AoS view is still available per event (event(i)) and in bulk
 * (toEvents()) for consumers that want whole events; both are exact,
 * so converting back and forth round-trips bit-identically.
 */

#ifndef BRANCHLAB_TRACE_SOA_HH
#define BRANCHLAB_TRACE_SOA_HH

#include <cstdint>
#include <vector>

#include "trace/event.hh"

namespace branchlab::trace
{

/** One recorded branch stream, one column per BranchEvent field. */
class SoaTrace
{
  public:
    SoaTrace() = default;

    std::size_t size() const { return op_.size(); }
    bool empty() const { return op_.empty(); }

    void
    clear()
    {
        op_.clear();
        conditionalPlane_.clear();
        takenPlane_.clear();
        targetKnownPlane_.clear();
        pc_.clear();
        nextPc_.clear();
        targetAddr_.clear();
        fallthroughAddr_.clear();
        maxPc_ = 0;
    }

    void
    reserve(std::size_t n)
    {
        op_.reserve(n);
        conditionalPlane_.reserve((n + 7) / 8);
        takenPlane_.reserve((n + 7) / 8);
        targetKnownPlane_.reserve((n + 7) / 8);
        pc_.reserve(n);
        nextPc_.reserve(n);
        targetAddr_.reserve(n);
        fallthroughAddr_.reserve(n);
    }

    /** Append one event (the recording path). */
    void append(const BranchEvent &event);

    /** Materialise event @p i (exact; no bounds check in release). */
    BranchEvent event(std::size_t i) const;

    // ---- Per-event field accessors (replay kernels). ----

    ir::Opcode
    opcode(std::size_t i) const
    {
        return static_cast<ir::Opcode>(op_[i]);
    }

    bool
    conditional(std::size_t i) const
    {
        return bit(conditionalPlane_, i);
    }

    bool taken(std::size_t i) const { return bit(takenPlane_, i); }

    bool
    targetKnown(std::size_t i) const
    {
        return bit(targetKnownPlane_, i);
    }

    // ---- Raw columns (replay kernels stream these directly). ----

    const std::vector<std::uint8_t> &ops() const { return op_; }
    const std::vector<ir::Addr> &pc() const { return pc_; }
    const std::vector<ir::Addr> &nextPc() const { return nextPc_; }
    const std::vector<ir::Addr> &targetAddr() const
    {
        return targetAddr_;
    }
    const std::vector<ir::Addr> &fallthroughAddr() const
    {
        return fallthroughAddr_;
    }
    const std::vector<std::uint8_t> &conditionalPlane() const
    {
        return conditionalPlane_;
    }
    const std::vector<std::uint8_t> &takenPlane() const
    {
        return takenPlane_;
    }
    const std::vector<std::uint8_t> &targetKnownPlane() const
    {
        return targetKnownPlane_;
    }

    /** Largest branch pc in the stream (0 when empty). The replay
     *  kernels use this to size their pc-indexed flat tables and to
     *  decide kernel eligibility. */
    ir::Addr maxPc() const { return maxPc_; }

    // ---- Bulk conversions (exact round trips). ----

    static SoaTrace fromEvents(const std::vector<BranchEvent> &events);
    std::vector<BranchEvent> toEvents() const;

    /**
     * Adopt pre-built columns (materializeView). The planes
     * must be LSB-first with (count + 7) / 8 bytes; every address
     * column must hold exactly @p ops.size() entries. maxPc is
     * recomputed here so adopters cannot desynchronise it.
     */
    void adoptColumns(std::vector<std::uint8_t> ops,
                      std::vector<std::uint8_t> conditional_plane,
                      std::vector<std::uint8_t> taken_plane,
                      std::vector<std::uint8_t> target_known_plane,
                      std::vector<ir::Addr> pc,
                      std::vector<ir::Addr> next_pc,
                      std::vector<ir::Addr> target_addr,
                      std::vector<ir::Addr> fallthrough_addr);

  private:
    static bool
    bit(const std::vector<std::uint8_t> &plane, std::size_t i)
    {
        return (plane[i >> 3] >> (i & 7)) & 1u;
    }

    static void
    setBit(std::vector<std::uint8_t> &plane, std::size_t i)
    {
        plane[i >> 3] = static_cast<std::uint8_t>(plane[i >> 3] |
                                                  (1u << (i & 7)));
    }

    std::vector<std::uint8_t> op_;
    /** LSB-first bit-planes, (size + 7) / 8 bytes each -- the same
     *  layout the entry's plane sections store, so they go to and
     *  from disk as straight copies. */
    std::vector<std::uint8_t> conditionalPlane_;
    std::vector<std::uint8_t> takenPlane_;
    std::vector<std::uint8_t> targetKnownPlane_;
    std::vector<ir::Addr> pc_;
    std::vector<ir::Addr> nextPc_;
    std::vector<ir::Addr> targetAddr_;
    std::vector<ir::Addr> fallthroughAddr_;
    ir::Addr maxPc_ = 0;
};

/** Records every branch event straight into SoA columns -- the
 *  replay engine's recorder (no intermediate event vector). */
class SoaRecorder : public TraceSink
{
  public:
    SoaRecorder() = default;

    explicit SoaRecorder(std::size_t reserve_hint)
    {
        trace_.reserve(reserve_hint);
    }

    void onBranch(const BranchEvent &event) override
    {
        trace_.append(event);
    }

    const SoaTrace &trace() const { return trace_; }

    /** Move the recorded stream out, leaving the recorder empty. */
    SoaTrace
    take()
    {
        SoaTrace taken = std::move(trace_);
        trace_.clear();
        return taken;
    }

  private:
    SoaTrace trace_;
};

} // namespace branchlab::trace

#endif // BRANCHLAB_TRACE_SOA_HH
