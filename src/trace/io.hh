/**
 * @file
 * Binary branch-trace serialization: write a recorded stream to disk
 * once, replay it into predictors many times -- the workflow of
 * trace-driven studies like the paper's (profile once, evaluate every
 * scheme over the same stream).
 *
 * On-disk format (version 2, columnar; all integers little-endian):
 *
 *   header:  magic "BLTR", u32 version = 2, u64 content hash,
 *            u64 event count, u64 payload byte count
 *   payload: column-wise --
 *            opcode bytes (count);
 *            four bit-planes, ceil(count/8) bytes each: conditional,
 *            taken, targetKnown, and "anomalous next" (set when
 *            nextPc != (taken ? targetAddr : fallthroughAddr), which
 *            never happens for VM-emitted events);
 *            one delta triple per event, interleaved so decode fills
 *            each event in a single pass: pc delta (zig-zag varint vs
 *            the previous pc), target delta (vs the event's own pc),
 *            fallthrough delta (vs the event's pc);
 *            anomalous nextPc deltas (one zig-zag varint per set
 *            anomaly bit, vs the event's pc).
 *
 * The v2 content hash identifies what produced the trace (program IR +
 * layout + input suite + VM configuration); 0 means "unknown". Readers
 * fail fatally on bad magic, unsupported versions, truncation, or
 * corrupt columns -- never silently.
 */

#ifndef BRANCHLAB_TRACE_IO_HH
#define BRANCHLAB_TRACE_IO_HH

#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "trace/event.hh"
#include "trace/soa.hh"

namespace branchlab::trace
{

/** The on-disk format version (columnar). Version 1, the retired
 *  fixed-record format, is refused like any other unknown version. */
inline constexpr std::uint32_t kTraceFormatVersion = 2;

/** Serialize events to a stream (v2). @return bytes written. */
std::size_t writeTrace(std::ostream &os,
                       const std::vector<BranchEvent> &events,
                       std::uint64_t content_hash = 0);

/** Serialize an SoA stream (v2) without materialising an event
 *  vector. @return bytes written. */
std::size_t writeTrace(std::ostream &os, const SoaTrace &events,
                       std::uint64_t content_hash = 0);

/** Serialize to a file (v2); fatal on I/O failure. */
void writeTraceFile(const std::string &path,
                    const std::vector<BranchEvent> &events,
                    std::uint64_t content_hash = 0);

/** SoA-column variant of writeTraceFile (no event vector built). */
void writeTraceFile(const std::string &path, const SoaTrace &stream,
                    std::uint64_t content_hash = 0);

/**
 * Deserialize a stream written by writeTrace. Fatal on bad magic,
 * unsupported version, truncation, or corruption.
 */
std::vector<BranchEvent> readTrace(std::istream &is);

/** Deserialize from a file; fatal on I/O failure. */
std::vector<BranchEvent> readTraceFile(const std::string &path);

/**
 * Stream events from a serialized trace into a sink (the columns
 * decode first). @return events delivered.
 */
std::size_t replayTrace(std::istream &is, TraceSink &sink);

/**
 * The v2 column codec of the trace file payload. encode returns
 * the payload bytes for the given events; decode parses a payload of
 * @p count events, returning false (with a diagnostic in @p error)
 * on truncation or corruption instead of failing fatally.
 *
 * The SoA pair is the primary implementation: the payload's three
 * outcome bit-planes are copied verbatim into the SoaTrace (they
 * share the LSB-first layout) and the delta columns decode straight
 * into the address arrays, so no std::vector<BranchEvent> is ever
 * materialised on the replay path. The event-vector decode is a thin
 * adapter over it (decode-into-SoA, then toEvents()).
 */
std::string encodeEventsV2(const SoaTrace &events);
bool decodeEventsV2Soa(std::string_view payload, std::uint64_t count,
                       SoaTrace &out, std::string &error);

/**
 * The derived v2 columns on their own: the anomalous-next bit-plane
 * and the two varint delta columns. The sectioned cache-entry writer
 * (trace/cache.cc) stores the remaining columns as verbatim copies of
 * the SoaTrace planes and only needs these three computed.
 */
void encodeDeltaColumnsV2(const SoaTrace &events,
                          std::string &anomaly_plane,
                          std::string &deltas, std::string &anomalies);

std::string encodeEventsV2(const std::vector<BranchEvent> &events);
bool decodeEventsV2(std::string_view payload, std::uint64_t count,
                    std::vector<BranchEvent> &out, std::string &error);

} // namespace branchlab::trace

#endif // BRANCHLAB_TRACE_IO_HH
