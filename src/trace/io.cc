#include "trace/io.hh"

#include <cstring>
#include <fstream>

#include "support/le_codec.hh"
#include "support/logging.hh"
#include "trace/varint.hh"

namespace branchlab::trace
{

namespace
{

constexpr char kMagic[4] = {'B', 'L', 'T', 'R'};
/** magic, u32 version, u64 content hash, u64 count, u64 payload
 *  bytes. */
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4 + 3 * 8;

bool
getBit(std::string_view plane, std::size_t base, std::uint64_t i)
{
    return (static_cast<unsigned char>(plane[base + (i >> 3)]) >>
            (i & 7)) &
           1u;
}

struct Header
{
    std::uint64_t contentHash = 0;
    std::uint64_t count = 0;
    std::uint64_t payloadSize = 0;
};

/** Read and check the fixed header in one read. */
Header
readHeader(std::istream &is)
{
    std::uint8_t raw[kHeaderBytes];
    is.read(reinterpret_cast<char *>(raw), sizeof(raw));
    const auto got = static_cast<std::size_t>(is.gcount());
    if (got < sizeof(kMagic) ||
        std::memcmp(raw, kMagic, sizeof(kMagic)) != 0)
        blab_fatal("not a BranchLab trace (bad magic)");
    if (got >= sizeof(kMagic) + 4) {
        const std::uint32_t version = loadLe32(raw + sizeof(kMagic));
        if (version != kTraceFormatVersion)
            blab_fatal("unsupported trace version ", version,
                       " (expected ", kTraceFormatVersion, ")");
    }
    if (got != kHeaderBytes)
        blab_fatal("truncated trace stream");
    const std::uint8_t *p = raw + sizeof(kMagic) + 4;
    return Header{loadLe64(p), loadLe64(p + 8), loadLe64(p + 16)};
}

std::vector<BranchEvent>
readBody(std::istream &is, const Header &header)
{
    std::string payload(header.payloadSize, '\0');
    is.read(payload.data(),
            static_cast<std::streamsize>(payload.size()));
    if (!is)
        blab_fatal("truncated trace stream");
    std::vector<BranchEvent> events;
    std::string error;
    if (!decodeEventsV2(payload, header.count, events, error))
        blab_fatal("corrupt trace stream: ", error);
    return events;
}

} // namespace

void
encodeDeltaColumnsV2(const SoaTrace &events, std::string &anomaly_plane,
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

std::string
encodeEventsV2(const SoaTrace &events)
{
    const std::size_t n = events.size();
    const std::size_t plane_bytes = (n + 7) / 8;

    // The first three bit-planes share the SoaTrace's LSB-first
    // layout, so they serialize as straight byte copies. Only the
    // anomalous-next plane has to be derived here.
    std::string anomaly_plane;
    std::string deltas;
    std::string anomalies;
    encodeDeltaColumnsV2(events, anomaly_plane, deltas, anomalies);

    std::string payload;
    payload.reserve(n + 4 * plane_bytes + deltas.size() +
                    anomalies.size());
    payload.append(
        reinterpret_cast<const char *>(events.ops().data()), n);
    payload.append(reinterpret_cast<const char *>(
                       events.conditionalPlane().data()),
                   plane_bytes);
    payload.append(
        reinterpret_cast<const char *>(events.takenPlane().data()),
        plane_bytes);
    payload.append(reinterpret_cast<const char *>(
                       events.targetKnownPlane().data()),
                   plane_bytes);
    payload += anomaly_plane;
    payload += deltas;
    payload += anomalies;
    return payload;
}

std::string
encodeEventsV2(const std::vector<BranchEvent> &events)
{
    return encodeEventsV2(SoaTrace::fromEvents(events));
}

bool
decodeEventsV2Soa(std::string_view payload, std::uint64_t count,
                  SoaTrace &out, std::string &error)
{
    out.clear();
    const std::size_t n = static_cast<std::size_t>(count);
    const std::size_t plane_bytes = (n + 7) / 8;
    if (payload.size() < n + 4 * plane_bytes) {
        error = "payload shorter than its fixed columns";
        return false;
    }
    const std::size_t planes = n; // plane base offset
    const auto *base =
        reinterpret_cast<const unsigned char *>(payload.data());
    VarintCursor cur{base + n + 4 * plane_bytes,
                     base + payload.size()};

    std::vector<std::uint8_t> ops(base, base + n);
    for (std::size_t i = 0; i < n; ++i) {
        if (ops[i] >= ir::kNumOpcodes) {
            error = "bad opcode " + std::to_string(ops[i]);
            return false;
        }
    }
    // The outcome planes keep their on-disk layout in memory: copy.
    std::vector<std::uint8_t> conditional_plane(
        base + planes, base + planes + plane_bytes);
    std::vector<std::uint8_t> taken_plane(
        base + planes + plane_bytes,
        base + planes + 2 * plane_bytes);
    std::vector<std::uint8_t> target_known_plane(
        base + planes + 2 * plane_bytes,
        base + planes + 3 * plane_bytes);

    std::vector<ir::Addr> pc(n);
    std::vector<ir::Addr> next_pc(n);
    std::vector<ir::Addr> target(n);
    std::vector<ir::Addr> fall(n);
    ir::Addr prev_pc = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t zpc = 0;
        std::uint64_t ztarget = 0;
        std::uint64_t zfall = 0;
        if (!cur.get(zpc) || !cur.get(ztarget) || !cur.get(zfall)) {
            error = "truncated delta column";
            return false;
        }
        pc[i] = prev_pc + unzigzag(zpc);
        prev_pc = pc[i];
        target[i] = pc[i] + unzigzag(ztarget);
        fall[i] = pc[i] + unzigzag(zfall);
        const bool taken =
            (taken_plane[i >> 3] >> (i & 7)) & 1u;
        next_pc[i] = taken ? target[i] : fall[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (!getBit(payload, planes + 3 * plane_bytes, i))
            continue;
        std::uint64_t z = 0;
        if (!cur.get(z)) {
            error = "truncated anomalous-next column";
            return false;
        }
        next_pc[i] = pc[i] + unzigzag(z);
    }
    if (cur.p != cur.end) {
        error = "trailing bytes after event columns";
        return false;
    }
    out.adoptColumns(std::move(ops), std::move(conditional_plane),
                     std::move(taken_plane),
                     std::move(target_known_plane), std::move(pc),
                     std::move(next_pc), std::move(target),
                     std::move(fall));
    return true;
}

bool
decodeEventsV2(std::string_view payload, std::uint64_t count,
               std::vector<BranchEvent> &out, std::string &error)
{
    out.clear();
    SoaTrace soa;
    if (!decodeEventsV2Soa(payload, count, soa, error))
        return false;
    out = soa.toEvents();
    return true;
}

std::size_t
writeTrace(std::ostream &os, const std::vector<BranchEvent> &events,
           std::uint64_t content_hash)
{
    return writeTrace(os, SoaTrace::fromEvents(events), content_hash);
}

std::size_t
writeTrace(std::ostream &os, const SoaTrace &events,
           std::uint64_t content_hash)
{
    const std::string payload = encodeEventsV2(events);
    std::string header(kMagic, sizeof(kMagic));
    appendLe32(header, kTraceFormatVersion);
    appendLe64(header, content_hash);
    appendLe64(header, events.size());
    appendLe64(header, payload.size());
    os.write(header.data(), static_cast<std::streamsize>(header.size()));
    os.write(payload.data(),
             static_cast<std::streamsize>(payload.size()));
    if (!os)
        blab_fatal("trace write failed");
    return header.size() + payload.size();
}

void
writeTraceFile(const std::string &path,
               const std::vector<BranchEvent> &events,
               std::uint64_t content_hash)
{
    writeTraceFile(path, SoaTrace::fromEvents(events), content_hash);
}

void
writeTraceFile(const std::string &path, const SoaTrace &stream,
               std::uint64_t content_hash)
{
    std::ofstream file(path, std::ios::binary);
    if (!file)
        blab_fatal("cannot open '", path, "' for writing");
    writeTrace(file, stream, content_hash);
}

std::vector<BranchEvent>
readTrace(std::istream &is)
{
    return readBody(is, readHeader(is));
}

std::vector<BranchEvent>
readTraceFile(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        blab_fatal("cannot open '", path, "' for reading");
    return readTrace(file);
}

std::size_t
replayTrace(std::istream &is, TraceSink &sink)
{
    const std::vector<BranchEvent> events = readTrace(is);
    for (const BranchEvent &event : events)
        sink.onBranch(event);
    return events.size();
}

} // namespace branchlab::trace
