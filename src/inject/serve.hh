/**
 * @file
 * The dfi-serve daemon (Server) and its client (Client): the NDJSON
 * protocol of inject/service.hh over a Unix-domain socket, one
 * request per connection.  Neither installs a signal handler; a
 * process using them ignores SIGPIPE, so a vanished peer costs an
 * EPIPE, not the process.  See DESIGN.md §11–§12.
 */

#ifndef DFI_INJECT_SERVE_HH
#define DFI_INJECT_SERVE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>

#include "common/json.hh"
#include "inject/service.hh"

namespace dfi::inject
{

/**
 * Serves a CampaignService, one thread per connection.  It never
 * trusts a peer to make progress: the request read carries an idle
 * timeout and each progress/response write a stream bound, so a
 * stalled or absent client costs a dropped connection, never a
 * wedged worker slot.
 */
class Server
{
  public:
    /** dfi-serve's per-connection bounds (0: none / OS default). */
    struct Options
    {
        std::uint64_t idleTimeoutMs = 30000;   //!< for the request
        std::uint64_t streamTimeoutMs = 10000; //!< per stalled write
        std::uint64_t sndbufBytes = 0;         //!< SO_SNDBUF
    };

    Server(CampaignService &service, Options options)
        : service_(service), bounds_(options)
    {}

    /** Closes and unlinks a socket that run() never served. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Listen at `path` (once).  A stale socket file, one nobody
     * accepts on, is replaced; a live one or a file that is not a
     * socket is refused.  False + error when it cannot listen.
     */
    bool listen(const std::string &path, std::string &error);

    /**
     * Serve until stop() or a `shutdown` request, then drain: close
     * the listener, shut the read side of every open connection (a
     * handler that has its request only writes from then on), drain
     * the service, wait for every handler, and unlink the socket.
     */
    void run();

    /** Make run() drain and return; safe in a signal handler. */
    void stop() { stopping_.store(true); }

    /** The `stats` payload: service, server and failpoint counters. */
    json::Value statsJson() const;

  private:
    /** Serve one accepted connection (without closing it). */
    void handle(int fd);

    /** Untrack and close a finished connection. */
    void finish(int fd);

    CampaignService &service_;
    Options bounds_;
    std::string path_;
    int listenFd_ = -1;

    static_assert(std::atomic<bool>::is_always_lock_free);
    std::atomic<bool> stopping_{false};

    /** Connections that never sent a request in time. */
    std::atomic<std::uint64_t> idleTimeouts_{0};

    /** Connections whose progress/response stream stalled or died. */
    std::atomic<std::uint64_t> droppedStreams_{0};

    // Open connections, one handler thread each.  A handler erases
    // its descriptor before closing it, so the drain never shuts a
    // descriptor the kernel has handed out again.
    std::mutex mu_;
    std::condition_variable idle_; //!< open_ became empty
    std::set<int> open_;
};

/** Client retry policy (see DESIGN.md §12). */
struct RetryPolicy
{
    std::uint64_t retries = 0;    //!< extra attempts after the first
    std::uint64_t backoffMs = 100;
    std::uint64_t deadlineMs = 0; //!< total budget (0: none)
    std::uint64_t seed = 0;       //!< jitter stream (campaign seed)
};

/** How a Client::call ended. */
struct ClientResult
{
    /**
     * dfi-serve's exit code: 0 success, 1 hard failure, 2 a path too
     * long for a socket, 3 retries or deadline exhausted.
     */
    int exitCode = 0;
    ServiceResponse response; //!< exitCode 0: the ok response
    std::string why;          //!< otherwise: what went wrong
};

/** Submits requests to the server at `socketPath`. */
struct Client
{
    std::string socketPath;
    RetryPolicy policy;

    /** Told the failure and the delay before each backoff sleep. */
    using Retrying = std::function<void(const std::string &why,
                                        std::uint64_t delayMs)>;

    /**
     * Submit `request` over a fresh connection per attempt, streaming
     * progress events to `progress`.  Transport failures and
     * rejections marked retryable are retried with deterministic
     * exponential backoff; malformed replies and hard server errors
     * are not.  The deadline also bounds the attempt in progress.
     */
    ClientResult call(const ServiceRequest &request,
                      const CampaignService::Progress &progress = {},
                      const Retrying &retrying = {}) const;
};

} // namespace dfi::inject

#endif // DFI_INJECT_SERVE_HH
