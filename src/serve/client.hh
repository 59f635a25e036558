/**
 * @file
 * Blocking branchlabd client: one connected socket, synchronous
 * request/response calls. Shared by the CLI's `client` subcommand,
 * the protocol tests, and the serve_load bench.
 */

#ifndef BRANCHLAB_SERVE_CLIENT_HH
#define BRANCHLAB_SERVE_CLIENT_HH

#include <string>

#include "serve/protocol.hh"

namespace branchlab::serve
{

class Client
{
  public:
    /** Connect to "unix:<path>", "tcp:<host>:<port>", or a bare unix
     *  path. Fatal (throwing) when the peer is unreachable. */
    explicit Client(const std::string &address);
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    Client(Client &&other) noexcept;

    /** Send one request and block for its response. Fatal (throwing)
     *  on transport failure or an undecodable response; protocol-level
     *  failures (Reject / Error / Draining) come back as the response
     *  status, not as exceptions. */
    Response call(const Request &request);

    /** Send raw bytes as one frame (tests: malformed payloads). */
    void sendFrame(std::string_view payload);

    /** Send arbitrary bytes verbatim, bypassing framing (tests:
     *  corrupt length prefixes, truncated frames). */
    void sendRaw(std::string_view bytes);

    /** Block for one framed response. False on EOF. */
    bool receive(Response &response);

    /** Close the socket early (tests: mid-request disconnect). */
    void close();

  private:
    int fd_ = -1;
    /** Bytes read past the last returned response. */
    FrameReader frames_;
};

} // namespace branchlab::serve

#endif // BRANCHLAB_SERVE_CLIENT_HH
