#include "serve/client.hh"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "support/logging.hh"

namespace branchlab::serve
{

Client::Client(const std::string &address) : fd_(connectTo(address)) {}

Client::Client(Client &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)), frames_(std::move(other.frames_))
{}

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Client::sendRaw(std::string_view bytes)
{
    blab_assert(fd_ >= 0, "client is closed");
    while (!bytes.empty()) {
        // MSG_NOSIGNAL: a vanished server is EPIPE, not SIGPIPE.
        const ssize_t wrote =
            ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            blab_fatal("send: ", std::strerror(errno));
        }
        bytes.remove_prefix(static_cast<std::size_t>(wrote));
    }
}

void
Client::sendFrame(std::string_view payload)
{
    sendRaw(frame(payload));
}

bool
Client::receive(Response &response)
{
    blab_assert(fd_ >= 0, "client is closed");
    std::string payload;
    for (;;) {
        const FrameReader::Status status = frames_.next(payload);
        if (status == FrameReader::Status::Frame)
            break;
        if (status == FrameReader::Status::Oversized)
            blab_fatal("response frame exceeds the 1 MiB limit");
        char chunk[16 * 1024];
        const ssize_t got = ::read(fd_, chunk, sizeof chunk);
        if (got == 0 && !frames_.partial())
            return false;
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            blab_fatal("read: truncated response");
        frames_.feed({chunk, static_cast<std::size_t>(got)});
    }
    std::string error;
    if (!decodeResponse(payload, response, error))
        blab_fatal("undecodable response: ", error);
    return true;
}

Response
Client::call(const Request &request)
{
    sendFrame(encodeRequest(request));
    Response response;
    if (!receive(response))
        blab_fatal("server closed the connection mid-call");
    return response;
}

} // namespace branchlab::serve
