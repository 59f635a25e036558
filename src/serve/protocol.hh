/**
 * @file
 * The branchlabd wire protocol: length-prefixed binary frames
 * carrying experiment requests and their results.
 *
 * Framing is a 4-byte little-endian payload length followed by the
 * payload; a frame longer than kMaxFrameBytes is refused before any
 * payload is read, so a hostile or corrupt length prefix cannot make
 * the server allocate. Multi-byte integers inside a payload are
 * little-endian; doubles travel as the little-endian bytes of their
 * IEEE-754 bit pattern, so a served cell is byte-identical to the
 * journal's copy.
 *
 * A request names a design point with exactly the coordinates of a
 * core::SweepPoint (BTB geometry, counter shape, FS slot count,
 * trace-selection threshold, optimizer level) plus the stream
 * parameters (seed, run override) and a workload list. The daemon
 * keys the request with core::sweepPointKey over the same content
 * hashes the trace cache and sweep journal use, which is what makes
 * the serving path content-addressed: any client asking for the same
 * experiment -- across connections, restarts, or machines sharing
 * the store -- hits the same journal record.
 *
 * Responses carry a status (Ok / Reject / Error / Draining), the
 * request id echoed back, a cache-hit flag, a retry hint for
 * rejects, and on Ok one core::SweepCell per requested workload in
 * request order.
 *
 * The encode and decode functions and the FrameReader are pure
 * functions over byte strings. The socket set-up at the end is shared
 * by daemon and client. An address is "unix:<path>", a bare path, or
 * "tcp:<host>:<port>": host dotted IPv4, empty or "*" for every
 * interface (this host, to a client); port all digits in 0-65535, 0
 * binding an ephemeral one.
 */

#ifndef BRANCHLAB_SERVE_PROTOCOL_HH
#define BRANCHLAB_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/sweep.hh"
#include "core/sweep_journal.hh"

namespace branchlab::serve
{

/** Hard ceiling on one frame's payload. Generous for any request the
 *  CLI can build (a maximal workload list is a few hundred bytes) and
 *  small enough that a garbage length prefix cannot drive an
 *  allocation. */
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/** Protocol version; bumped on any wire-layout change. */
inline constexpr std::uint16_t kProtocolVersion = 1;

/** Request frame magic ("BLRQ", little-endian). */
inline constexpr std::uint32_t kRequestMagic = 0x51524C42u;
/** Response frame magic ("BLRS", little-endian). */
inline constexpr std::uint32_t kResponseMagic = 0x53524C42u;

enum class RequestType : std::uint8_t
{
    /** Evaluate (or serve from the store) one design point. */
    Experiment = 1,
    /** Liveness probe; answered Ok with no cells. */
    Ping = 2,
};

enum class ResponseStatus : std::uint8_t
{
    Ok = 0,
    /** Admission control refused the request; retryAfterMs hints when
     *  to try again. */
    Reject = 1,
    /** The request was malformed or evaluation failed; `message`
     *  says why. */
    Error = 2,
    /** The daemon is shutting down and accepts no new work. */
    Draining = 3,
};

/** One experiment request: a design point plus stream parameters and
 *  the workloads to measure it over. */
struct Request
{
    RequestType type = RequestType::Experiment;
    /** Client-chosen id, echoed back verbatim in the response. */
    std::uint64_t requestId = 0;
    /** Master seed of the recorded streams. */
    std::uint64_t seed = 19890528;
    /** Per-workload run override (0 = workload default). */
    std::uint32_t runs = 0;
    /** The design point; the pipeline axis keeps its default (cells
     *  are pipeline-independent, costs are derived client-side). */
    predict::BufferConfig btb{};
    predict::CounterConfig counter{};
    std::uint32_t fsSlots = 2;
    double traceThreshold = 0.7;
    profile::FsOptLevel fsOpt = profile::FsOptLevel::None;
    /** Workload names, in result order. */
    std::vector<std::string> workloads;

    /** The request's coordinates as a sweep grid point. */
    core::SweepPoint toPoint() const;
};

struct Response
{
    ResponseStatus status = ResponseStatus::Ok;
    /** True when every cell came from the journal without evaluation. */
    bool cacheHit = false;
    std::uint64_t requestId = 0;
    /** Backpressure hint (Reject only). */
    std::uint32_t retryAfterMs = 0;
    /** One cell per requested workload, request order (Ok only). */
    std::vector<core::SweepCell> cells;
    /** Diagnostic (Error only). */
    std::string message;
};

/** Serialize a request/response payload (no frame header). */
std::string encodeRequest(const Request &request);
std::string encodeResponse(const Response &response);

/**
 * Parse a payload. False when the payload is malformed (bad magic,
 * unknown version or enum value, truncated body, trailing bytes)
 * with a diagnostic in @p error; @p out is unspecified on failure.
 */
bool decodeRequest(std::string_view payload, Request &out,
                   std::string &error);
bool decodeResponse(std::string_view payload, Response &out,
                    std::string &error);

/** The 4-byte little-endian frame header for a payload this long. */
std::string frameHeader(std::uint32_t payloadBytes);

/** Header and payload as one buffer, so a frame leaves in one write
 *  (a header sent alone waits out Nagle and delayed ACK). */
std::string frame(std::string_view payload);

/** Splits a byte stream into frame payloads: feed() bytes as they
 *  arrive, in any split, then next() until it stops returning Frame.
 *  It holds only bytes that arrived, and refuses an oversized length
 *  prefix as soon as the header is in: no allocation on its word. */
class FrameReader
{
  public:
    enum class Status
    {
        Frame,
        /** No whole frame buffered yet. */
        Partial,
        /** The next header announces more than kMaxFrameBytes. */
        Oversized,
    };

    void feed(std::string_view bytes) { buffer_.append(bytes); }

    Status next(std::string &payload);

    /** True while part of a frame is buffered. */
    bool partial() const { return start_ < buffer_.size(); }

  private:
    std::string buffer_;
    /** Offset of the first unconsumed byte. */
    std::size_t start_ = 0;
};

/** A bound, listening, non-blocking socket. */
struct Listener
{
    int fd = -1;
    /** "unix:<path>", or "tcp:<host>:<port>" with the bound port. */
    std::string address;
    /** The socket file to unlink on stop; empty for TCP. */
    std::string unixPath;
};

/** Bind and listen on @p address (TCP_NODELAY on TCP, inherited by
 *  accepted sockets), replacing a stale Unix socket file. Fatal
 *  (throwing) on a malformed address or failed bind. */
Listener listenOn(std::string_view address, int backlog);

/** Connect a blocking socket to @p address (TCP_NODELAY on TCP).
 *  Fatal (throwing) on a malformed address or an unreachable peer. */
int connectTo(std::string_view address);

} // namespace branchlab::serve

#endif // BRANCHLAB_SERVE_PROTOCOL_HH
