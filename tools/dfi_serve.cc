/**
 * @file
 * dfi-serve: persistent campaign service daemon — and its client.
 *
 * Server mode (`--socket`) listens on a Unix-domain socket and
 * serves campaign requests from a long-lived process, so the golden
 * run and checkpoint store of a repeated (program, core, config) are
 * simulated once and reused from a content-addressed warm cache
 * (inject/service.hh).  Requests admit FIFO with per-client quotas
 * onto `--workers` concurrent execution slots; `--cache-dir`
 * persists prepared state and memoized responses across restarts;
 * SIGTERM/SIGINT drain gracefully (finish admitted requests, refuse
 * new ones, then exit).  A socket path already served by a live
 * daemon is refused, never hijacked.
 *
 * Client mode (`--connect`) submits one request and exits: the
 * campaign flags are dfi-campaign's own, registered by
 * inject::bindCampaignFlags, progress streams to stderr, and
 * `--telemetry-out BASE` writes the returned artifacts to
 * BASE.jsonl/BASE.summary.json — byte-identical to what a local
 * `dfi-campaign --telemetry-out` run would produce, which is what
 * lets CI `dfi-diff --exact` served output against results/golden/.
 *
 * Protocol: one request per connection, newline-delimited JSON both
 * ways (`dfi-request` in; zero or more `dfi-progress` lines and one
 * terminal `dfi-response` out).  See DESIGN.md §11.
 *
 * Robustness (DESIGN.md §12): the server never trusts a peer to make
 * progress — reads carry an idle timeout (`--idle-timeout-ms`) and
 * stream writes a bound (`--stream-timeout-ms`), so a stalled client
 * costs a dropped stream, never a wedged worker slot.  The client
 * retries retryable failures (`--retries`, `--backoff-ms`,
 * `--deadline-ms`) with deterministic exponential backoff and exits
 * 0 on success, 1 on a hard error, 3 with retries exhausted.  Both
 * halves honour `--failpoints` / DFI_FAILPOINTS for deterministic
 * fault injection into their own I/O paths (common/failpoint.hh).
 *
 * Examples:
 *   dfi-serve --socket /tmp/dfi.sock --cache-budget 1024
 *   dfi-serve --connect /tmp/dfi.sock --core gem5-arm \
 *             --benchmark micro --component int_regfile \
 *             --injections 24 --seed 7 --telemetry-out smoke
 *   dfi-serve --connect /tmp/dfi.sock --stats
 *   dfi-serve --connect /tmp/dfi.sock --shutdown
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "common/failpoint.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/netio.hh"
#include "common/rng.hh"
#include "common/version.hh"
#include "inject/service.hh"

using namespace dfi;
using namespace dfi::inject;

namespace
{

[[noreturn]] void
die(const std::string &message)
{
    std::fprintf(stderr, "dfi-serve: %s\n", message.c_str());
    std::exit(2);
}

/** Upper bound on one protocol line (the runs artifact rides in). */
constexpr std::size_t kMaxLineBytes = 256ull << 20;

volatile std::sig_atomic_t g_signalled = 0;

void
onSignal(int)
{
    g_signalled = 1;
}

/**
 * True when a server is accepting connections at `path` right now.
 * Distinguishes a *stale* socket file (previous daemon crashed
 * without unlinking — safe to replace) from a *live* one (another
 * daemon is serving — replacing it would silently hijack its
 * clients).
 */
bool
socketIsLive(const sockaddr_un &addr)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    const bool live =
        ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) == 0;
    ::close(fd);
    return live;
}

/** Bind + listen on a fresh Unix-domain socket at `path`. */
int
listenOn(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        die("socket path too long: " + path);
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);

    struct stat st{};
    if (::lstat(path.c_str(), &st) == 0) {
        if (!S_ISSOCK(st.st_mode))
            die(path + " exists and is not a socket; refusing to "
                       "replace it");
        if (socketIsLive(addr))
            die(path + " is served by a live daemon; refusing to "
                       "replace it");
        // A socket file nobody answers on is debris from a daemon
        // that died without cleanup; replace it.
        ::unlink(path.c_str());
    }

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        die("socket(): " + std::string(std::strerror(errno)));
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0)
        die("bind(" + path + "): " +
            std::string(std::strerror(errno)));
    if (::listen(fd, 64) != 0)
        die("listen(" + path + "): " +
            std::string(std::strerror(errno)));
    return fd;
}

/** Connect to the server; -1 with errno preserved on failure. */
int
connectTo(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        die("socket path too long: " + path);
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        return -1;
    }
    return fd;
}

/** Joins detached connection handlers at shutdown. */
class ConnectionTracker
{
  public:
    void
    enter()
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++active_;
    }

    void
    leave()
    {
        // Notify under the lock: once waitIdle() can see zero, the
        // waiter may return and destroy this tracker, so the notify
        // must not trail the unlock.
        std::lock_guard<std::mutex> lock(mu_);
        --active_;
        cv_.notify_all();
    }

    void
    waitIdle()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return active_ == 0; });
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::uint64_t active_ = 0;
};

struct ServerState
{
    CampaignService *service = nullptr;
    std::atomic<bool> shutdownRequested{false};

    /** Poll bound on waiting for a request line (-1: forever). */
    int idleTimeoutMs = -1;

    /** Poll bound on progress/response writes (-1: forever). */
    int streamTimeoutMs = -1;

    /** SO_SNDBUF for accepted sockets (0: OS default). */
    std::uint64_t sndbufBytes = 0;

    /** Connections dropped for never sending a request in time. */
    std::atomic<std::uint64_t> idleTimeouts{0};

    /** Connections whose progress/response stream stalled or died. */
    std::atomic<std::uint64_t> droppedStreams{0};
};

void
handleConnection(int fd, ServerState *state)
{
    std::string line;
    ServiceResponse response;
    netio::LineReader reader(fd, kMaxLineBytes,
                             state->idleTimeoutMs);
    switch (reader.next(line)) {
      case netio::ReadResult::Line:
        break;
      case netio::ReadResult::TooLong:
        // The peer is still there and still sending; tell it what
        // went wrong instead of silently dropping the connection.
        response.error = "request line exceeds " +
                         std::to_string(kMaxLineBytes) + " bytes";
        netio::writeLine(fd, encodeServiceResponse(response),
                         state->streamTimeoutMs);
        ::close(fd);
        return;
      case netio::ReadResult::Timeout:
        // A connection that never produces a request is not traffic,
        // it is a held file descriptor; drop it and account for it.
        state->idleTimeouts.fetch_add(1);
        ::close(fd);
        return;
      case netio::ReadResult::Eof:
      case netio::ReadResult::Error:
        // Nobody left to answer.
        ::close(fd);
        return;
    }

    json::Value parsed;
    ServiceRequest request;
    std::string error;
    if (!json::parse(line, parsed, error) ||
        !decodeServiceRequest(parsed, request, error)) {
        response.error = error;
        netio::writeLine(fd, encodeServiceResponse(response),
                         state->streamTimeoutMs);
        ::close(fd);
        return;
    }

    // Tracks delivery across progress and the terminal response so a
    // stalled or vanished peer is counted once per connection.
    std::atomic<bool> peer_alive{true};

    response.op = request.op;
    if (request.op == "ping") {
        response.ok = true;
        response.extra = json::Value::string(versionString());
    } else if (request.op == "stats") {
        response.ok = true;
        json::Value extra = state->service->statsJson();
        json::Value server = json::Value::object();
        server.set("idle_timeouts",
                   json::Value::unsignedInt(
                       state->idleTimeouts.load()));
        server.set("dropped_streams",
                   json::Value::unsignedInt(
                       state->droppedStreams.load()));
        extra.set("server", std::move(server));
        extra.set("failpoints", failpoint::statsJson());
        response.extra = std::move(extra);
    } else if (request.op == "shutdown") {
        response.ok = true;
        state->shutdownRequested.store(true);
    } else {
        // Campaign: stream throttled progress events, then the
        // terminal response.  Progress writes may race only with
        // each other, and the reporter serialises those; a stalled
        // or vanished client just loses its events — the bounded
        // write keeps the worker slot moving, and the campaign
        // completes and warms the cache either way.
        const int stream_timeout = state->streamTimeoutMs;
        const auto progress = [fd, &peer_alive, stream_timeout](
                                  std::uint64_t done,
                                  std::uint64_t total) {
            const std::uint64_t step =
                total > 25 ? total / 25 : std::uint64_t{1};
            if (done != total && done % step != 0)
                return;
            if (peer_alive.load() &&
                !netio::writeLine(fd,
                                  encodeServiceProgress(done, total),
                                  stream_timeout))
                peer_alive.store(false);
        };
        response = state->service->executeQueued(request, progress);
    }
    const bool delivered =
        peer_alive.load() &&
        netio::writeLine(fd, encodeServiceResponse(response),
                         state->streamTimeoutMs);
    if (!delivered)
        state->droppedStreams.fetch_add(1);
    ::close(fd);
}

int
serveMain(const std::string &socket_path,
          const CampaignService::Options &options,
          int idle_timeout_ms, int stream_timeout_ms,
          std::uint64_t sndbuf_bytes)
{
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    CampaignService service(options);
    ServerState state;
    state.service = &service;
    state.idleTimeoutMs = idle_timeout_ms;
    state.streamTimeoutMs = stream_timeout_ms;
    state.sndbufBytes = sndbuf_bytes;
    ConnectionTracker tracker;

    const int listen_fd = listenOn(socket_path);
    std::fprintf(stderr,
                 "dfi-serve: listening on %s (cache budget %llu MiB, "
                 "quota %u/client, queue %u, workers %u%s%s)\n",
                 socket_path.c_str(),
                 static_cast<unsigned long long>(
                     options.cacheBudgetBytes >> 20),
                 options.perClientInFlight, options.queueCapacity,
                 options.workers,
                 options.cacheDir.empty() ? "" : ", disk cache ",
                 options.cacheDir.c_str());

    while (g_signalled == 0 && !state.shutdownRequested.load()) {
        pollfd pfd{};
        pfd.fd = listen_fd;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, 250);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            die("poll(): " + std::string(std::strerror(errno)));
        }
        if (ready == 0)
            continue;
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            continue;
        // Non-blocking is what makes the write bound real: a
        // blocking write() to a stalled peer sleeps in the kernel
        // where no poll() timeout can reach it.
        const int fl = ::fcntl(fd, F_GETFL, 0);
        if (fl >= 0)
            ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
        if (state.sndbufBytes > 0) {
            const int sndbuf = static_cast<int>(std::min<
                std::uint64_t>(state.sndbufBytes, 1u << 30));
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof sndbuf);
        }
        tracker.enter();
        try {
            std::thread([fd, &state, &tracker] {
                handleConnection(fd, &state);
                tracker.leave();
            }).detach();
        } catch (const std::exception &err) {
            // Thread creation failed (EAGAIN under load): the enter()
            // above has no matching leave() on this path, and an
            // unbalanced counter would hang waitIdle() at shutdown
            // forever.  Balance it and fail the connection cleanly.
            tracker.leave();
            ServiceResponse response;
            response.retryable = true;
            response.error = std::string("cannot spawn a handler "
                                         "thread: ") +
                             err.what();
            netio::writeLine(fd, encodeServiceResponse(response),
                             state.streamTimeoutMs);
            ::close(fd);
        }
    }

    std::fprintf(stderr, "dfi-serve: draining...\n");
    ::close(listen_fd);
    service.drain();   // admitted campaigns finish
    tracker.waitIdle(); // responses flush before teardown
    ::unlink(socket_path.c_str());
    std::fprintf(stderr, "dfi-serve: drained, exiting\n");
    return 0;
}

/** Write one response artifact; die() on I/O failure. */
void
writeArtifact(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        die("cannot write " + path);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out)
        die("short write to " + path);
}

/**
 * How one request attempt ended.  The split decides the retry loop:
 * transport failures and server backpressure are Retry (the world
 * may have improved by the next attempt), protocol violations and
 * non-retryable server errors are Hard (a retry would only repeat
 * them).
 */
enum class Attempt
{
    Ok,
    Hard,
    Retry,
};

/** True for connect() errnos worth another attempt. */
bool
retryableConnectErrno(int err)
{
    // ECONNREFUSED/ENOENT: the daemon is (re)starting and has not
    // bound its socket yet.  The rest are transient kernel or load
    // conditions.
    return err == ECONNREFUSED || err == ENOENT || err == EAGAIN ||
           err == ETIMEDOUT || err == ECONNRESET;
}

/**
 * Submit the request once and stream the reply.  On Ok the response
 * has been fully handled (artifacts written, summary printed).  On
 * Hard/Retry `why` says what went wrong.
 */
Attempt
attemptRequest(const std::string &socket_path,
               const ServiceRequest &request,
               const std::string &telemetry_out, std::string &why)
{
    const int fd = connectTo(socket_path);
    if (fd < 0) {
        const int err = errno;
        why = "connect(" + socket_path + "): " +
              std::string(std::strerror(err));
        return retryableConnectErrno(err) ? Attempt::Retry
                                          : Attempt::Hard;
    }

    // Chaos seam: delay or fail the request send.
    if (failpoint::check("client.send").kind ==
        failpoint::Action::Kind::Error) {
        ::close(fd);
        why = "request write failed (client.send failpoint)";
        return Attempt::Retry;
    }
    if (!netio::writeAll(fd,
                         encodeServiceRequest(request).dump() +
                             "\n")) {
        ::close(fd);
        why = "request write failed (server gone?)";
        return Attempt::Retry;
    }

    std::string line;
    ServiceResponse response;
    netio::LineReader reader(fd, kMaxLineBytes);
    bool have_response = false;
    while (!have_response) {
        // Chaos seam: stall the client between reads (the delay
        // action sleeps inside check()).
        failpoint::check("client.read");
        const netio::ReadResult got = reader.next(line);
        if (got == netio::ReadResult::Eof)
            break;
        if (got == netio::ReadResult::TooLong) {
            ::close(fd);
            why = "server line exceeds the protocol bound (" +
                  std::to_string(kMaxLineBytes) + " bytes)";
            return Attempt::Hard;
        }
        if (got == netio::ReadResult::Error) {
            ::close(fd);
            why = "read from server failed: " +
                  std::string(std::strerror(errno));
            return Attempt::Retry;
        }
        json::Value parsed;
        std::string error;
        if (!json::parse(line, parsed, error)) {
            ::close(fd);
            why = "malformed server line: " + error;
            return Attempt::Hard;
        }
        const json::Value *kind = parsed.find("kind");
        if (kind != nullptr &&
            kind->kind() == json::Kind::String &&
            kind->asString() == kServiceProgressKind) {
            const json::Value *done = parsed.find("done");
            const json::Value *total = parsed.find("total");
            const auto uintField = [](const json::Value *v) {
                return v != nullptr &&
                       v->kind() == json::Kind::Int &&
                       !v->isNegative();
            };
            if (!uintField(done) || !uintField(total)) {
                ::close(fd);
                why = "malformed server progress line";
                return Attempt::Hard;
            }
            std::fprintf(
                stderr, "  %llu/%llu runs\n",
                static_cast<unsigned long long>(done->asUint()),
                static_cast<unsigned long long>(total->asUint()));
            continue;
        }
        if (!decodeServiceResponse(parsed, response, error)) {
            ::close(fd);
            why = "malformed server response: " + error;
            return Attempt::Hard;
        }
        have_response = true;
    }
    ::close(fd);
    if (!have_response) {
        // A mid-stream disconnect: the server (or its stream bound)
        // dropped us.  The campaign still completed server-side and
        // warmed the cache, so a retry is cheap.
        why = "connection closed before a response arrived";
        return Attempt::Retry;
    }

    if (!response.ok) {
        why = "server error: " + response.error;
        return response.retryable ? Attempt::Retry : Attempt::Hard;
    }

    if (response.op == "ping") {
        std::printf("pong: %s\n", response.extra.asString().c_str());
        return Attempt::Ok;
    }
    if (response.op == "stats") {
        std::fputs(response.extra.dumpPretty().c_str(), stdout);
        return Attempt::Ok;
    }
    if (response.op == "shutdown") {
        std::puts("shutdown requested");
        return Attempt::Ok;
    }

    // Campaign: artifacts land wherever the client says, exactly as
    // a local dfi-campaign --telemetry-out run would write them.
    if (!telemetry_out.empty()) {
        writeArtifact(telemetry_out + ".jsonl",
                      response.telemetryRuns);
        writeArtifact(telemetry_out + ".summary.json",
                      response.telemetrySummary);
        std::fprintf(stderr,
                     "telemetry written to %s.jsonl and "
                     "%s.summary.json\n",
                     telemetry_out.c_str(), telemetry_out.c_str());
    }
    std::printf("cache_key: %s\n", response.cacheKey.c_str());
    std::printf("cache_hit: %s\n",
                response.cacheHit ? "true" : "false");
    std::printf("cache_source: %s\n", response.cacheSource.c_str());
    std::printf("runs: %llu\n", static_cast<unsigned long long>(
                                    response.runsTotal));
    std::printf("vulnerability (non-masked): %.2f%%\n",
                response.vulnerability);
    return Attempt::Ok;
}

/** Client retry policy (see DESIGN.md §12). */
struct RetryPolicy
{
    std::uint64_t retries = 0;    //!< extra attempts after the first
    std::uint64_t backoffMs = 100;
    std::uint64_t deadlineMs = 0; //!< total budget (0: none)
    std::uint64_t seed = 0;       //!< jitter stream (campaign seed)
};

int
clientMain(const std::string &socket_path,
           const ServiceRequest &request,
           const std::string &telemetry_out,
           const RetryPolicy &policy)
{
    std::signal(SIGPIPE, SIG_IGN);
    const auto start = std::chrono::steady_clock::now();
    const auto elapsedMs = [&start] {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
    };

    std::string why;
    for (std::uint64_t attempt = 0;; ++attempt) {
        switch (attemptRequest(socket_path, request, telemetry_out,
                               why)) {
          case Attempt::Ok:
            return 0;
          case Attempt::Hard:
            std::fprintf(stderr, "dfi-serve: %s\n", why.c_str());
            return 1;
          case Attempt::Retry:
            break;
        }
        if (attempt >= policy.retries) {
            std::fprintf(stderr,
                         "dfi-serve: %s (retries exhausted after "
                         "%llu attempt%s)\n",
                         why.c_str(),
                         static_cast<unsigned long long>(attempt +
                                                         1),
                         attempt == 0 ? "" : "s");
            return 3;
        }

        // Deterministic exponential backoff: the jitter stream is a
        // pure function of (seed, attempt), so a chaos schedule
        // replays the same wait sequence every run.
        std::uint64_t delay = policy.backoffMs;
        if (attempt < 63)
            delay = std::min<std::uint64_t>(
                policy.backoffMs << attempt, 30000);
        Rng jitter(policy.seed ^ (attempt + 1));
        delay = static_cast<std::uint64_t>(
            static_cast<double>(delay) *
            (0.5 + jitter.nextDouble() / 2.0));
        if (policy.deadlineMs != 0 &&
            elapsedMs() + delay >= policy.deadlineMs) {
            std::fprintf(stderr,
                         "dfi-serve: %s (deadline of %llu ms "
                         "exceeded)\n",
                         why.c_str(),
                         static_cast<unsigned long long>(
                             policy.deadlineMs));
            return 3;
        }
        std::fprintf(stderr,
                     "dfi-serve: %s; retrying in %llu ms\n",
                     why.c_str(),
                     static_cast<unsigned long long>(delay));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delay));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    std::string connect_path;
    std::string telemetry_out;
    bool op_ping = false, op_stats = false, op_shutdown = false;
    std::uint64_t cache_budget_mb = 1024;
    CampaignService::Options options;
    std::uint64_t idle_timeout_ms = 30000;
    std::uint64_t stream_timeout_ms = 10000;
    std::uint64_t sndbuf_bytes = 0;
    std::string failpoints_spec;
    RetryPolicy retry;
    ServiceRequest request;

    cli::FlagSet flags("dfi-serve", "--socket PATH | --connect PATH "
                                    "[options]");
    flags.section("server mode");
    flags.text("--socket", "PATH",
               "listen on this unix-domain socket\n"
               "(a stale socket file is replaced)",
               &socket_path);
    // The MiB count is bounded so its byte count (<< 20) fits.
    flags.uint64("--cache-budget", "MB",
                 "warm artifact cache LRU budget in MiB\n"
                 "(default 1024; 0 disables caching)",
                 &cache_budget_mb,
                 std::numeric_limits<std::uint64_t>::max() >> 20);
    flags.uint32("--quota", "N",
                 "in-flight requests per client\n(default 2)",
                 &options.perClientInFlight);
    flags.uint32("--queue", "N",
                 "admitted requests across all clients\n"
                 "(default 64)",
                 &options.queueCapacity);
    flags.uint32("--workers", "N",
                 "campaigns executing simultaneously\n(default 1)",
                 &options.workers);
    flags.text("--cache-dir", "DIR",
               "persist prepared state and memoized\n"
               "responses here across restarts",
               &options.cacheDir);
    flags.uint64("--idle-timeout-ms", "MS",
                 "drop a connection that sends no\n"
                 "request within MS (default 30000;\n"
                 "0 waits forever)",
                 &idle_timeout_ms);
    flags.uint64("--stream-timeout-ms", "MS",
                 "drop a progress/response stream that\n"
                 "accepts no bytes within MS (default\n"
                 "10000; 0 waits forever)",
                 &stream_timeout_ms);
    flags.uint64("--sndbuf", "BYTES",
                 "SO_SNDBUF for accepted sockets\n"
                 "(default 0: OS default; chaos tests\n"
                 "shrink it to stall streams early)",
                 &sndbuf_bytes);

    flags.section("client mode");
    flags.text("--connect", "PATH",
               "submit one request to the server at\nPATH and exit",
               &connect_path);
    flags.text("--client", "NAME",
               "client identity for the per-client\n"
               "quota (default 'anon')",
               &request.client);
    flags.flag("--ping", "check the server is alive", &op_ping);
    flags.flag("--stats", "print cache and queue statistics",
               &op_stats);
    flags.flag("--shutdown", "ask the server to drain and exit",
               &op_shutdown);
    flags.text("--telemetry-out", "BASE",
               "write the returned artifacts to\n"
               "BASE.jsonl + BASE.summary.json",
               &telemetry_out);
    flags.uint64("--retries", "N",
                 "retry a retryable failure up to N\n"
                 "times (default 0; exit 3 when\n"
                 "exhausted)",
                 &retry.retries);
    flags.uint64("--backoff-ms", "MS",
                 "base retry delay, doubled per attempt\n"
                 "with deterministic jitter (default\n"
                 "100, capped at 30000)",
                 &retry.backoffMs);
    flags.uint64("--deadline-ms", "MS",
                 "give up retrying once MS have passed\n"
                 "in total (default 0: no deadline)",
                 &retry.deadlineMs);

    flags.section("chaos testing (both modes)");
    flags.text("--failpoints", "SPEC",
               "arm deterministic failpoints, e.g.\n"
               "'cache.write=error@every:2;sock.read=\n"
               "eintr@nth:3' (overrides the\n"
               "DFI_FAILPOINTS environment variable)",
               &failpoints_spec);

    bindCampaignFlags(flags, request.config);

    std::string parse_error;
    switch (flags.parse(argc, argv, parse_error)) {
      case cli::ParseResult::Help:
        std::fputs(flags.usage().c_str(), stdout);
        return 0;
      case cli::ParseResult::Version:
        std::puts(dfi::versionString().c_str());
        return 0;
      case cli::ParseResult::Error:
        die(parse_error);
      case cli::ParseResult::Ok:
        break;
    }
    retry.seed = request.config.seed;

    // Arm the failpoint registry before any instrumented code runs.
    // The explicit flag wins over the environment so a chaos harness
    // can exercise one process of a pipeline without leaking the
    // schedule into the others.
    std::string failpoint_cfg = failpoints_spec;
    if (failpoint_cfg.empty()) {
        if (const char *env = std::getenv("DFI_FAILPOINTS"))
            failpoint_cfg = env;
    }
    if (!failpoint_cfg.empty()) {
        std::string failpoint_error;
        if (!failpoint::configure(failpoint_cfg, failpoint_error))
            die("--failpoints: " + failpoint_error);
    }

    if (!socket_path.empty() && !connect_path.empty())
        die("--socket (server) and --connect (client) are mutually "
            "exclusive");
    if (socket_path.empty() && connect_path.empty())
        die("one of --socket (server) or --connect (client) is "
            "required");

    if (!socket_path.empty()) {
        if (options.workers == 0)
            die("--workers must be at least 1");
        options.cacheBudgetBytes = cache_budget_mb << 20;
        const auto pollMs = [](std::uint64_t ms) {
            if (ms == 0)
                return -1;
            return static_cast<int>(std::min<std::uint64_t>(
                ms, std::numeric_limits<int>::max()));
        };
        return serveMain(socket_path, options,
                         pollMs(idle_timeout_ms),
                         pollMs(stream_timeout_ms), sndbuf_bytes);
    }

    const int ops = (op_ping ? 1 : 0) + (op_stats ? 1 : 0) +
                    (op_shutdown ? 1 : 0);
    if (ops > 1)
        die("--ping, --stats and --shutdown are mutually exclusive");
    request.op = op_ping       ? "ping"
                 : op_stats    ? "stats"
                 : op_shutdown ? "shutdown"
                               : "campaign";
    return clientMain(connect_path, request, telemetry_out, retry);
}
