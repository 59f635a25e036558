#include "serve/daemon.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <optional>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "support/logging.hh"

namespace branchlab::serve
{

using Clock = std::chrono::steady_clock;

/** One accepted socket. The loop owns the read side; the loop and the
 *  workers reply, under the mutex. The fd closes with the last owner:
 *  the loop, or a job still evaluating one of its requests. */
struct Daemon::Connection
{
    explicit Connection(int socket) : fd(socket) {}
    ~Connection() { ::close(fd); }

    /** Queue @p bytes behind the backlog and write what the socket
     *  takes, never blocking; send({}) just flushes. True when the
     *  loop has work left: a backlog to flush, or a close. */
    bool
    send(std::string_view bytes)
    {
        std::lock_guard<std::mutex> lock(mutex);
        backlog.append(bytes);
        std::size_t sent = 0;
        while (sent < backlog.size()) {
            // MSG_NOSIGNAL: a vanished client is EPIPE, not SIGPIPE.
            const ssize_t wrote =
                ::send(fd, backlog.data() + sent, backlog.size() - sent,
                       MSG_NOSIGNAL);
            if (wrote < 0 && errno == EINTR)
                continue;
            if (wrote < 0) {
                closing = closing || errno != EAGAIN;
                break;
            }
            sent += static_cast<std::size_t>(wrote);
        }
        backlog.erase(0, sent);
        // Past the bound the client is not reading: close it.
        if (closing || backlog.size() > kMaxBacklogBytes) {
            closing = true;
            backlog.clear();
        }
        backlogged = !backlog.empty();
        return closing || backlogged;
    }

    const int fd;
    /** Set by the loop (EOF, read or protocol error) or by a send
     *  (write error, backlog bound); the loop then drops it. */
    std::atomic<bool> closing{false};
    /** Whether `backlog` holds bytes, readable without the mutex. */
    std::atomic<bool> backlogged{false};

    std::mutex mutex;
    std::string backlog;

    // The read side, touched only by the loop.
    FrameReader frames;
    /** When the first byte of the partial frame in `frames` arrived. */
    std::optional<Clock::time_point> frameStart;
};

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)), service_(config_.service),
      pool_(resolveJobs(config_.jobs), "serve"),
      wakeFd_(::eventfd(0, EFD_NONBLOCK))
{
    if (wakeFd_ < 0)
        blab_fatal("eventfd(): ", std::strerror(errno));
}

Daemon::~Daemon()
{
    if (loopThread_.joinable()) {
        requestDrain();
        waitStopped();
    }
    ::close(wakeFd_);
}

void
Daemon::start()
{
    blab_assert(listener_.fd < 0, "daemon already started");
    listener_ = listenOn(config_.listen, /*backlog=*/64);
    loopThread_ = std::thread([this] { loop(); });
}

void
Daemon::wake()
{
    const std::uint64_t one = 1;
    // Fails only on a saturated counter, which still reads as ready.
    [[maybe_unused]] const ssize_t wrote =
        ::write(wakeFd_, &one, sizeof one);
}

void
Daemon::loop()
{
    std::vector<std::shared_ptr<Connection>> connections;
    std::vector<pollfd> fds;
    std::vector<char> chunk(64 * 1024);
    std::string payload;
    // Drain with every admitted request replied: only unsent replies
    // hold a connection from then on.
    std::optional<Clock::time_point> quiet;
    for (;;) {
        const Clock::time_point now = Clock::now();
        const bool draining = draining_.load();
        if (draining && !quiet && pending_.load() == 0)
            quiet = now;
        std::erase_if(connections, [&](const auto &connection) {
            const auto &start = connection->frameStart;
            return connection->closing ||
                   (start && now - *start >= kFrameDeadline) ||
                   (quiet && (!connection->backlogged ||
                              now - *quiet >= kFrameDeadline));
        });
        if (quiet && connections.empty())
            return;

        // Slots 0 and 1 are the wake fd and the listen fd; poll()
        // skips the listen fd while it is negative.
        const bool accepting =
            !draining && connections.size() < kMaxConnections;
        fds.clear();
        fds.push_back({wakeFd_, POLLIN, 0});
        fds.push_back({accepting ? listener_.fd : -1, POLLIN, 0});
        Clock::time_point due = quiet ? *quiet + kFrameDeadline
                                      : Clock::time_point::max();
        for (const auto &connection : connections) {
            const short events =
                connection->backlogged ? POLLIN | POLLOUT : POLLIN;
            fds.push_back({connection->fd, events, 0});
            if (connection->frameStart)
                due = std::min(due, *connection->frameStart +
                                        kFrameDeadline);
        }
        // Every deadline is ahead: passed ones were acted on above.
        const auto wait =
            std::chrono::ceil<std::chrono::milliseconds>(due - now);
        const int timeout = due == Clock::time_point::max()
                                ? -1
                                : static_cast<int>(wait.count());
        if (::poll(fds.data(), fds.size(), timeout) < 0)
            continue; // EINTR
        const Clock::time_point ready = Clock::now();

        if (fds[0].revents != 0) {
            std::uint64_t count = 0;
            [[maybe_unused]] const ssize_t got =
                ::read(wakeFd_, &count, sizeof count);
        }
        for (std::size_t i = 0; i < connections.size(); ++i) {
            const short revents = fds[2 + i].revents;
            Connection &connection = *connections[i];
            if ((revents & POLLOUT) != 0)
                connection.send({});
            if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                continue;
            const ssize_t got =
                ::read(connection.fd, chunk.data(), chunk.size());
            if (got <= 0) {
                // EOF or a reset ends the connection; its admitted
                // requests still complete, only their replies go
                // nowhere.
                if (got == 0 || (errno != EAGAIN && errno != EINTR))
                    connection.closing = true;
                continue;
            }
            connection.frames.feed(
                {chunk.data(), static_cast<std::size_t>(got)});
            while (!connection.closing) {
                const FrameReader::Status status =
                    connection.frames.next(payload);
                if (status == FrameReader::Status::Partial)
                    break;
                connection.frameStart.reset();
                dispatch(connections[i],
                         status == FrameReader::Status::Frame ? &payload
                                                              : nullptr);
            }
            if (connection.frames.partial() && !connection.frameStart)
                connection.frameStart = ready;
        }

        if ((fds[1].revents & POLLIN) != 0) {
            while (connections.size() < kMaxConnections) {
                const int fd = ::accept4(listener_.fd, nullptr, nullptr,
                                         SOCK_NONBLOCK);
                if (fd < 0)
                    break; // backlog empty, or the peer already left
                connections.push_back(std::make_shared<Connection>(fd));
            }
        }
    }
}

void
Daemon::dispatch(const std::shared_ptr<Connection> &connection,
                 const std::string *payload)
{
    Response reply;
    Request request;
    std::string error;
    if (payload == nullptr) {
        reply.status = ResponseStatus::Error;
        reply.message = "frame exceeds 1 MiB limit";
        connection->closing = true;
    } else if (draining_.load()) {
        reply.status = ResponseStatus::Draining;
    } else if (!decodeRequest(*payload, request, error)) {
        // Fail closed: a peer speaking the wrong protocol gets one
        // diagnostic, not a parsing loop.
        reply.status = ResponseStatus::Error;
        reply.requestId = request.requestId;
        reply.message = "malformed request: " + error;
        connection->closing = true;
    } else if (pending_.load() >= config_.maxQueue) {
        // Admission control on the loop: over the ceiling, the only
        // cost of a request is this reply. Only the loop increments
        // pending_, so the check and the increment cannot overshoot.
        static obs::Counter &rejects =
            obs::Registry::global().counter("serve.rejects");
        rejects.add(1);
        reply.status = ResponseStatus::Reject;
        reply.requestId = request.requestId;
        reply.retryAfterMs = config_.retryAfterMs;
    } else {
        pending_.fetch_add(1);
        pool_.submit([this, connection, request = std::move(request)] {
            const bool loop_work = connection->send(
                frame(encodeResponse(service_.handle(request))));
            // Decrement before waking: a draining loop that reads
            // pending_ == 0 knows every reply is written or queued.
            pending_.fetch_sub(1);
            if (loop_work || draining_.load())
                wake();
        });
        return;
    }
    connection->send(frame(encodeResponse(reply)));
}

void
Daemon::requestDrain()
{
    draining_.store(true);
    wake();
}

void
Daemon::waitStopped()
{
    if (!loopThread_.joinable())
        return;
    blab_assert(draining_.load(), "waitStopped() before drain");
    loopThread_.join();
    // Every admitted request has replied; wait out workers between
    // their reply and their return. The pool's fail-fast rethrow is
    // deliberately fatal here -- handler exceptions are converted to
    // Error responses inside the service, so anything surfacing past
    // it is a daemon bug.
    pool_.waitIdle();
    ::close(listener_.fd);
    if (!listener_.unixPath.empty())
        ::unlink(listener_.unixPath.c_str());
}

} // namespace branchlab::serve
