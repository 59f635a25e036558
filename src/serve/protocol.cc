#include "serve/protocol.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/le_codec.hh"
#include "support/logging.hh"

namespace branchlab::serve
{

namespace
{

bool
fail(std::string &error, const char *what)
{
    error = what;
    return false;
}

union SocketAddress
{
    sockaddr any;
    sockaddr_in in;
    sockaddr_un un;
};

SocketAddress
parseAddress(std::string_view address)
{
    SocketAddress parsed{};
    std::string_view spec = address;
    if (spec.substr(0, 4) != "tcp:") {
        if (spec.substr(0, 5) == "unix:")
            spec.remove_prefix(5);
        if (spec.empty() || spec.size() >= sizeof parsed.un.sun_path)
            blab_fatal("bad unix socket path '", address, "'");
        parsed.un.sun_family = AF_UNIX;
        std::memcpy(parsed.un.sun_path, spec.data(), spec.size());
        return parsed;
    }
    spec.remove_prefix(4);
    const std::size_t colon = spec.rfind(':');
    const std::string host(spec.substr(0, colon));
    const std::string_view digits = spec.substr(colon + 1);
    const char *end = digits.data() + digits.size();
    std::uint32_t port = 0;
    const auto [stop, error] = std::from_chars(digits.data(), end, port);
    if (colon == std::string_view::npos || error != std::errc() ||
        stop != end || port > 65535) {
        blab_fatal("tcp address needs host:port with a port in 0-65535, "
                   "got '", address, "'");
    }
    parsed.in.sin_family = AF_INET;
    parsed.in.sin_port = htons(static_cast<std::uint16_t>(port));
    if (host.empty() || host == "*")
        parsed.in.sin_addr.s_addr = htonl(INADDR_ANY);
    else if (::inet_pton(AF_INET, host.c_str(), &parsed.in.sin_addr) != 1)
        blab_fatal("unparsable tcp host '", host, "'");
    return parsed;
}

/** A stream socket for @p parsed. TCP ones run with Nagle off, so a
 *  reply written in one piece leaves at once; a listener passes the
 *  option on to every socket it accepts. Fatal on failure. */
int
openSocket(const SocketAddress &parsed, int flags)
{
    const int fd = ::socket(parsed.any.sa_family, SOCK_STREAM | flags, 0);
    if (fd < 0)
        blab_fatal("socket(): ", std::strerror(errno));
    const int one = 1;
    if (parsed.any.sa_family == AF_INET)
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

socklen_t
addressLength(const SocketAddress &parsed)
{
    return parsed.any.sa_family == AF_INET ? sizeof parsed.in
                                           : sizeof parsed.un;
}

} // namespace

core::SweepPoint
Request::toPoint() const
{
    core::SweepPoint point;
    point.btb = btb;
    point.counter = counter;
    point.fsSlots = fsSlots;
    point.traceThreshold = traceThreshold;
    point.fsOpt = fsOpt;
    return point;
}

std::string
encodeRequest(const Request &request)
{
    std::string out;
    appendLe32(out, kRequestMagic);
    appendLe16(out, kProtocolVersion);
    out.push_back(static_cast<char>(request.type));
    out.push_back(0); // pad
    appendLe64(out, request.requestId);
    if (request.type != RequestType::Experiment)
        return out;
    appendLe64(out, request.seed);
    appendLe32(out, request.runs);
    appendLe32(out, static_cast<std::uint32_t>(request.btb.entries));
    appendLe32(out, static_cast<std::uint32_t>(request.btb.associativity));
    out.push_back(static_cast<char>(request.btb.policy));
    out.push_back(static_cast<char>(request.counter.bits));
    out.push_back(static_cast<char>(request.counter.threshold));
    out.push_back(static_cast<char>(request.fsOpt));
    appendLe64(out, request.btb.seed);
    appendLe32(out, request.fsSlots);
    appendLeF64(out, request.traceThreshold);
    appendLe16(out, static_cast<std::uint16_t>(request.workloads.size()));
    for (const std::string &name : request.workloads) {
        appendLe16(out, static_cast<std::uint16_t>(name.size()));
        out.append(name);
    }
    return out;
}

bool
decodeRequest(std::string_view payload, Request &out,
              std::string &error)
{
    LeReader reader(payload);
    std::uint32_t magic = 0;
    std::uint16_t version = 0;
    std::uint8_t type = 0;
    std::uint8_t pad = 0;
    if (!reader.u32(magic) || !reader.u16(version) ||
        !reader.u8(type) || !reader.u8(pad) ||
        !reader.u64(out.requestId)) {
        return fail(error, "truncated request header");
    }
    if (magic != kRequestMagic)
        return fail(error, "bad request magic");
    if (version != kProtocolVersion)
        return fail(error, "unknown protocol version");
    if (type != static_cast<std::uint8_t>(RequestType::Experiment) &&
        type != static_cast<std::uint8_t>(RequestType::Ping)) {
        return fail(error, "unknown request type");
    }
    out.type = static_cast<RequestType>(type);
    if (out.type == RequestType::Ping) {
        if (!reader.exhausted())
            return fail(error, "trailing bytes after ping");
        return true;
    }

    std::uint32_t entries = 0;
    std::uint32_t associativity = 0;
    std::uint8_t policy = 0;
    std::uint8_t bits = 0;
    std::uint8_t threshold = 0;
    std::uint8_t fs_opt = 0;
    std::uint16_t count = 0;
    if (!reader.u64(out.seed) || !reader.u32(out.runs) ||
        !reader.u32(entries) || !reader.u32(associativity) ||
        !reader.u8(policy) || !reader.u8(bits) ||
        !reader.u8(threshold) || !reader.u8(fs_opt) ||
        !reader.u64(out.btb.seed) || !reader.u32(out.fsSlots) ||
        !reader.f64(out.traceThreshold) || !reader.u16(count)) {
        return fail(error, "truncated request body");
    }
    if (policy >
        static_cast<std::uint8_t>(predict::ReplacementPolicy::Random))
        return fail(error, "unknown replacement policy");
    if (fs_opt > static_cast<std::uint8_t>(profile::FsOptLevel::Hoist))
        return fail(error, "unknown FS optimizer level");
    if (count == 0)
        return fail(error, "request names no workloads");
    out.btb.entries = entries;
    out.btb.associativity = associativity;
    out.btb.policy = static_cast<predict::ReplacementPolicy>(policy);
    out.counter.bits = bits;
    out.counter.threshold = threshold;
    out.fsOpt = static_cast<profile::FsOptLevel>(fs_opt);
    out.workloads.clear();
    out.workloads.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
        std::uint16_t length = 0;
        std::string name;
        if (!reader.u16(length) || !reader.bytes(length, name))
            return fail(error, "truncated workload name");
        if (name.empty())
            return fail(error, "empty workload name");
        out.workloads.push_back(std::move(name));
    }
    if (!reader.exhausted())
        return fail(error, "trailing bytes after request");
    return true;
}

std::string
encodeResponse(const Response &response)
{
    std::string out;
    appendLe32(out, kResponseMagic);
    appendLe16(out, kProtocolVersion);
    out.push_back(static_cast<char>(response.status));
    out.push_back(response.cacheHit ? 1 : 0);
    appendLe64(out, response.requestId);
    appendLe32(out, response.retryAfterMs);
    if (response.status == ResponseStatus::Ok) {
        appendLe16(out,
               static_cast<std::uint16_t>(response.cells.size()));
        for (const core::SweepCell &cell : response.cells) {
            appendLeF64(out, cell.sbtbAccuracy);
            appendLeF64(out, cell.sbtbMissRatio);
            appendLeF64(out, cell.cbtbAccuracy);
            appendLeF64(out, cell.cbtbMissRatio);
            appendLeF64(out, cell.fsAccuracy);
            appendLeF64(out, cell.codeIncrease);
        }
    } else if (response.status == ResponseStatus::Error) {
        appendLe16(out,
               static_cast<std::uint16_t>(response.message.size()));
        out.append(response.message);
    }
    return out;
}

bool
decodeResponse(std::string_view payload, Response &out,
               std::string &error)
{
    LeReader reader(payload);
    std::uint32_t magic = 0;
    std::uint16_t version = 0;
    std::uint8_t status = 0;
    std::uint8_t cache_hit = 0;
    if (!reader.u32(magic) || !reader.u16(version) ||
        !reader.u8(status) || !reader.u8(cache_hit) ||
        !reader.u64(out.requestId) || !reader.u32(out.retryAfterMs)) {
        return fail(error, "truncated response header");
    }
    if (magic != kResponseMagic)
        return fail(error, "bad response magic");
    if (version != kProtocolVersion)
        return fail(error, "unknown protocol version");
    if (status > static_cast<std::uint8_t>(ResponseStatus::Draining))
        return fail(error, "unknown response status");
    out.status = static_cast<ResponseStatus>(status);
    out.cacheHit = cache_hit != 0;
    out.cells.clear();
    out.message.clear();
    if (out.status == ResponseStatus::Ok) {
        std::uint16_t count = 0;
        if (!reader.u16(count))
            return fail(error, "truncated cell count");
        out.cells.reserve(count);
        for (std::uint16_t i = 0; i < count; ++i) {
            core::SweepCell cell;
            if (!reader.f64(cell.sbtbAccuracy) ||
                !reader.f64(cell.sbtbMissRatio) ||
                !reader.f64(cell.cbtbAccuracy) ||
                !reader.f64(cell.cbtbMissRatio) ||
                !reader.f64(cell.fsAccuracy) ||
                !reader.f64(cell.codeIncrease)) {
                return fail(error, "truncated cell");
            }
            out.cells.push_back(cell);
        }
    } else if (out.status == ResponseStatus::Error) {
        std::uint16_t length = 0;
        if (!reader.u16(length) ||
            !reader.bytes(length, out.message)) {
            return fail(error, "truncated error message");
        }
    }
    if (!reader.exhausted())
        return fail(error, "trailing bytes after response");
    return true;
}

std::string
frameHeader(std::uint32_t payloadBytes)
{
    std::string out;
    appendLe32(out, payloadBytes);
    return out;
}

std::string
frame(std::string_view payload)
{
    std::string out =
        frameHeader(static_cast<std::uint32_t>(payload.size()));
    out.append(payload);
    return out;
}

FrameReader::Status
FrameReader::next(std::string &payload)
{
    constexpr std::size_t kHeaderBytes = 4;
    const std::size_t buffered = buffer_.size() - start_;
    if (buffered >= kHeaderBytes) {
        const std::uint32_t length = loadLe32(
            reinterpret_cast<const std::uint8_t *>(buffer_.data()) +
            start_);
        if (length > kMaxFrameBytes)
            return Status::Oversized;
        if (buffered - kHeaderBytes >= length) {
            payload.assign(buffer_, start_ + kHeaderBytes, length);
            start_ += kHeaderBytes + length;
            return Status::Frame;
        }
    }
    // Out of whole frames: drop the consumed prefix so the buffer
    // holds at most one partial frame plus the next read.
    buffer_.erase(0, start_);
    start_ = 0;
    return Status::Partial;
}

Listener
listenOn(std::string_view address, int backlog)
{
    const SocketAddress parsed = parseAddress(address);
    Listener listener;
    if (parsed.any.sa_family == AF_UNIX) {
        // The daemon owns its path: a stale socket from a previous
        // (killed) instance is reclaimed, like the stores' temp files.
        listener.unixPath = parsed.un.sun_path;
        listener.address = "unix:" + listener.unixPath;
        ::unlink(listener.unixPath.c_str());
    }
    listener.fd = openSocket(parsed, SOCK_NONBLOCK);
    const int one = 1;
    if (listener.unixPath.empty())
        ::setsockopt(listener.fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
    if (::bind(listener.fd, &parsed.any, addressLength(parsed)) != 0 ||
        ::listen(listener.fd, backlog) != 0) {
        const int saved = errno;
        ::close(listener.fd);
        blab_fatal("bind(", address, "): ", std::strerror(saved));
    }
    if (listener.unixPath.empty()) {
        SocketAddress bound{};
        socklen_t size = sizeof bound;
        ::getsockname(listener.fd, &bound.any, &size);
        char host[INET_ADDRSTRLEN] = "0.0.0.0";
        ::inet_ntop(AF_INET, &bound.in.sin_addr, host, sizeof host);
        listener.address = "tcp:" + std::string(host) + ":" +
                           std::to_string(ntohs(bound.in.sin_port));
    }
    return listener;
}

int
connectTo(std::string_view address)
{
    SocketAddress parsed = parseAddress(address);
    if (parsed.any.sa_family == AF_INET &&
        parsed.in.sin_addr.s_addr == htonl(INADDR_ANY))
        parsed.in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int fd = openSocket(parsed, 0);
    if (::connect(fd, &parsed.any, addressLength(parsed)) != 0) {
        const int saved = errno;
        ::close(fd);
        blab_fatal("connect(", address, "): ", std::strerror(saved));
    }
    return fd;
}

} // namespace branchlab::serve
