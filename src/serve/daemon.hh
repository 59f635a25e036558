/**
 * @file
 * The branchlabd socket daemon: accepts framed experiment requests
 * over a Unix or TCP socket and resolves them through the
 * content-addressed ExperimentService.
 *
 * Listen addresses are parsed by listenOn (serve/protocol); address()
 * reports the resolved one (the bound port for "tcp:<host>:0"), which
 * is how tests and the load bench find their in-process daemon.
 *
 * Threading model: one loop thread plus the "serve" ThreadPool, at any
 * connection count. The loop poll()s the listen socket and every
 * connection: it accepts, assembles frames from non-blocking reads,
 * decodes and admits them, and hands admitted requests to the pool.
 * Every reply goes through the connection's one non-blocking send,
 * which writes what the socket takes and leaves the rest for the loop
 * to flush on POLLOUT: neither loop nor worker ever waits on a client.
 * Resources are bounded by the constants below, not by options.
 *
 * Admission control is a bounded pending count: a request arriving
 * while `--max-queue` requests are queued or running is answered
 * Reject with a retry-after hint immediately, on the loop --
 * backpressure costs the server nothing but the write.
 *
 * Graceful drain (requestDrain, wired to SIGTERM by tools/branchlabd):
 * stop accepting connections, answer any frame that still arrives
 * with Draining, finish every admitted request and write its
 * response, then close. waitStopped() joins everything; a drained
 * daemon's destructor is a no-op.
 *
 * Protocol errors are fail-closed per connection: a malformed or
 * oversized frame gets an Error response (when the transport still
 * allows one) and the connection is closed; the daemon itself always
 * survives client misbehaviour.
 */

#ifndef BRANCHLAB_SERVE_DAEMON_HH
#define BRANCHLAB_SERVE_DAEMON_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "serve/protocol.hh"
#include "serve/service.hh"
#include "support/thread_pool.hh"

namespace branchlab::serve
{

/** Connection cap: 2 x 256 fds (a test process holds both ends) plus
 *  the stores' fit the default 1024-fd soft limit. At the cap the
 *  listen fd leaves the poll set; new connects wait in the backlog. */
inline constexpr std::size_t kMaxConnections = 256;

/** Longest a frame may take from its first byte to its last; a client
 *  stalling or dribbling mid-frame is closed. Idle connections between
 *  frames are not timed (pipelined clients idle between requests); the
 *  cap bounds them. Drain waits this long for unread replies. */
inline constexpr std::chrono::seconds kFrameDeadline{5};

/** Unread replies past which a client is closed as not reading. */
inline constexpr std::size_t kMaxBacklogBytes = 4 * kMaxFrameBytes;

struct DaemonConfig
{
    /** "unix:<path>", "tcp:<host>:<port>", or a bare unix path. */
    std::string listen = "unix:branchlabd.sock";
    /** Worker threads; 0 defers to BRANCHLAB_JOBS, then hardware. */
    unsigned jobs = 0;
    /** Admitted (queued + running) request ceiling; beyond it new
     *  requests are rejected with a retry hint. */
    std::size_t maxQueue = 64;
    /** The Reject response's retry-after hint. */
    std::uint32_t retryAfterMs = 100;
    ServiceConfig service;
};

class Daemon
{
  public:
    explicit Daemon(DaemonConfig config);
    /** Drains and joins if still running. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Bind the listen address and start the loop. Fatal (throwing)
     *  when the address is malformed or cannot be bound. */
    void start();

    /** Begin graceful shutdown: stop accepting, answer new frames
     *  with Draining, let every admitted request finish and respond.
     *  Idempotent; returns without waiting. */
    void requestDrain();

    /** Block until the daemon has fully stopped (drain completed,
     *  the loop joined, sockets closed). */
    void waitStopped();

    /** The resolved listen address ("unix:<path>" / "tcp:<host>:<port>"
     *  with the actual port). Valid after start(). */
    const std::string &address() const { return listener_.address; }

    ExperimentService &service() { return service_; }

  private:
    struct Connection;

    void loop();
    /** Answer or admit one whole frame (null: an oversized one). */
    void dispatch(const std::shared_ptr<Connection> &connection,
                  const std::string *payload);
    void wake();

    DaemonConfig config_;
    ExperimentService service_;
    ThreadPool pool_;

    std::atomic<bool> draining_{false};
    /** Admitted requests not yet replied to (only the loop adds). */
    std::atomic<std::size_t> pending_{0};

    Listener listener_;
    /** eventfd that wakes the loop (workers, requestDrain()). */
    int wakeFd_ = -1;

    std::thread loopThread_;
};

} // namespace branchlab::serve

#endif // BRANCHLAB_SERVE_DAEMON_HH
