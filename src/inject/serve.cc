#include "inject/serve.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

#include "common/failpoint.hh"
#include "common/netio.hh"
#include "common/rng.hh"
#include "common/version.hh"

namespace dfi::inject
{

namespace
{

/** The address of `path`; false when it does not fit sun_path. */
bool
unixAddress(const std::string &path, sockaddr_un &addr)
{
    addr = sockaddr_un{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return false;
    std::memcpy(addr.sun_path, path.data(), path.size());
    return true;
}

/**
 * A non-blocking socket connected to `addr`; -1 with errno preserved.
 * A listener whose backlog is full fails the connect with EAGAIN at
 * once instead of holding the caller in the kernel, where neither a
 * deadline nor a drain can reach it.
 */
int
connectUnix(const sockaddr_un &addr)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
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

/** A flag's milliseconds as a poll() bound (0 means no bound). */
int
pollMs(std::uint64_t ms)
{
    if (ms == 0)
        return -1;
    return static_cast<int>(
        std::min<std::uint64_t>(ms, std::numeric_limits<int>::max()));
}

} // namespace

Server::~Server()
{
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        ::unlink(path_.c_str());
    }
}

bool
Server::listen(const std::string &path, std::string &error)
{
    sockaddr_un addr;
    if (!unixAddress(path, addr)) {
        error = "socket path too long: " + path;
        return false;
    }
    struct stat st{};
    if (::lstat(path.c_str(), &st) == 0) {
        if (!S_ISSOCK(st.st_mode)) {
            error = path + " exists and is not a socket; refusing to "
                           "replace it";
            return false;
        }
        // A socket someone accepts on belongs to a live daemon, and
        // replacing it would silently hijack its clients; a full
        // backlog (EAGAIN) is a live daemon too.  One nobody answers
        // on is debris from a daemon that died without cleanup;
        // replace it.
        const int probe = connectUnix(addr);
        if (probe >= 0 || errno == EAGAIN) {
            if (probe >= 0)
                ::close(probe);
            error = path + " is served by a live daemon; refusing to "
                           "replace it";
            return false;
        }
        ::unlink(path.c_str());
    }

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = "socket(): " + std::string(std::strerror(errno));
        return false;
    }
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        error = "bind(" + path + "): " + std::strerror(errno);
        ::close(fd);
        return false;
    }
    if (::listen(fd, 64) != 0) {
        error = "listen(" + path + "): " + std::strerror(errno);
        ::close(fd);
        ::unlink(path.c_str());
        return false;
    }
    listenFd_ = fd;
    path_ = path;
    return true;
}

void
Server::run()
{
    while (!stopping_.load()) {
        pollfd pfd{};
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        // The timeout is how a stop() is noticed; EINTR just loops.
        if (::poll(&pfd, 1, 250) <= 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        // Non-blocking is what makes the write bound real: a
        // blocking write() to a stalled peer sleeps in the kernel
        // where no poll() timeout can reach it.
        const int fl = ::fcntl(fd, F_GETFL, 0);
        if (fl >= 0)
            ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
        if (bounds_.sndbufBytes > 0) {
            const int sndbuf = static_cast<int>(
                std::min<std::uint64_t>(bounds_.sndbufBytes, 1u << 30));
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof sndbuf);
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            open_.insert(fd);
        }
        try {
            std::thread([this, fd] {
                handle(fd);
                finish(fd);
            }).detach();
        } catch (const std::exception &err) {
            // Thread creation failed (EAGAIN under load): fail the
            // connection cleanly, and untrack it, or the drain would
            // wait for a handler that never existed.
            ServiceResponse response;
            response.retryable = true;
            response.error = std::string("cannot spawn a handler "
                                         "thread: ") +
                             err.what();
            netio::writeLine(fd, encodeServiceResponse(response),
                             pollMs(bounds_.streamTimeoutMs));
            finish(fd);
        }
    }

    ::close(listenFd_);
    listenFd_ = -1;
    {
        // A connection that has not sent its request by now is not
        // served: EOF wakes its handler instead of the idle timeout.
        std::lock_guard<std::mutex> lock(mu_);
        for (const int fd : open_)
            ::shutdown(fd, SHUT_RD);
    }
    service_.drain(); // admitted campaigns finish
    {
        // Responses flush before teardown.
        std::unique_lock<std::mutex> lock(mu_);
        idle_.wait(lock, [this] { return open_.empty(); });
    }
    ::unlink(path_.c_str());
}

void
Server::finish(int fd)
{
    {
        // Notify under the lock: once the waiter in run() can see an
        // empty set it may return and destroy this server, so the
        // notify must not trail the unlock.
        std::lock_guard<std::mutex> lock(mu_);
        open_.erase(fd);
        idle_.notify_all();
    }
    ::close(fd);
}

json::Value
Server::statsJson() const
{
    json::Value stats = service_.statsJson();
    json::Value server = json::Value::object();
    server.set("idle_timeouts",
               json::Value::unsignedInt(idleTimeouts_.load()));
    server.set("dropped_streams",
               json::Value::unsignedInt(droppedStreams_.load()));
    stats.set("server", std::move(server));
    stats.set("failpoints", failpoint::statsJson());
    return stats;
}

void
Server::handle(int fd)
{
    const int stream_ms = pollMs(bounds_.streamTimeoutMs);
    std::string line;
    netio::LineReader reader(fd, kMaxRequestLineBytes,
                             pollMs(bounds_.idleTimeoutMs));
    const netio::ReadResult got = reader.next(line);
    if (got == netio::ReadResult::Timeout) {
        // A connection that never produces a request is not traffic,
        // it is a held file descriptor; drop it and account for it.
        idleTimeouts_.fetch_add(1);
        return;
    }
    if (got != netio::ReadResult::Line &&
        got != netio::ReadResult::TooLong)
        return; // EOF or a read error: nobody left to answer

    // Tracks delivery across progress and the terminal response so a
    // stalled or vanished peer is counted once per connection.
    std::atomic<bool> peer_alive{true};

    ServiceResponse response;
    json::Value parsed;
    ServiceRequest request;
    std::string error;
    if (got == netio::ReadResult::TooLong) {
        // The peer is still there and still sending; tell it what
        // went wrong instead of silently dropping the connection.
        response.error = "request line exceeds " +
                         std::to_string(kMaxRequestLineBytes) + " bytes";
    } else if (!json::parse(line, parsed, error) ||
               !decodeServiceRequest(parsed, request, error)) {
        response.error = error;
    } else if (request.op != "campaign") {
        response.op = request.op;
        response.ok = true;
        if (request.op == "ping")
            response.extra = json::Value::string(versionString());
        else if (request.op == "stats")
            response.extra = statsJson();
        else
            stop(); // shutdown
    } else {
        // Campaign: stream throttled progress events, then the
        // terminal response.  Progress writes may race only with
        // each other, and the reporter serialises those; a stalled
        // or vanished client just loses its events — the bounded
        // write keeps the worker slot moving, and the campaign
        // completes and warms the cache either way.
        const auto progress = [fd, stream_ms, &peer_alive](
                                  std::uint64_t done,
                                  std::uint64_t total) {
            const std::uint64_t step =
                total > 25 ? total / 25 : std::uint64_t{1};
            if (done != total && done % step != 0)
                return;
            if (peer_alive.load() &&
                !netio::writeLine(fd,
                                  encodeServiceProgress(done, total),
                                  stream_ms))
                peer_alive.store(false);
        };
        response = service_.executeQueued(request, progress);
    }
    const bool delivered =
        peer_alive.load() &&
        netio::writeLine(fd, encodeServiceResponse(response),
                         stream_ms);
    if (!delivered)
        droppedStreams_.fetch_add(1);
}

namespace
{

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
    // bound its socket yet.  EAGAIN: its backlog is full.  The rest
    // are transient kernel or load conditions.
    return err == ECONNREFUSED || err == ENOENT || err == EAGAIN ||
           err == ETIMEDOUT || err == ECONNRESET;
}

/**
 * Send the request on a connected socket and read the reply until
 * the response, passing progress events on.  Every read waits at
 * most until `deadline`.  On anything but Ok, `why` says what went
 * wrong.
 */
Attempt
exchange(int fd, const ServiceRequest &request,
         const CampaignService::Progress &progress,
         std::chrono::steady_clock::time_point deadline,
         ServiceResponse &response, std::string &why)
{
    // Chaos seam: delay or fail the request send.
    if (failpoint::check("client.send").kind ==
        failpoint::Action::Kind::Error) {
        why = "request write failed (client.send failpoint)";
        return Attempt::Retry;
    }
    if (!netio::writeAll(fd,
                         encodeServiceRequest(request).dump() + "\n")) {
        why = "request write failed (server gone?)";
        return Attempt::Retry;
    }

    std::string line;
    netio::LineReader reader(fd, kMaxLineBytes, -1, deadline);
    while (true) {
        // Chaos seam: stall the client between reads (the delay
        // action sleeps inside check()).
        failpoint::check("client.read");
        switch (reader.next(line)) {
          case netio::ReadResult::Line:
            break;
          case netio::ReadResult::Eof:
            // A mid-stream disconnect: the server (or its stream
            // bound) dropped us.  The campaign still completed
            // server-side and warmed the cache, so a retry is cheap.
            why = "connection closed before a response arrived";
            return Attempt::Retry;
          case netio::ReadResult::TooLong:
            why = "server line exceeds the protocol bound (" +
                  std::to_string(kMaxLineBytes) + " bytes)";
            return Attempt::Hard;
          case netio::ReadResult::Error:
            why = "read from server failed: " +
                  std::string(std::strerror(errno));
            return Attempt::Retry;
          case netio::ReadResult::Timeout:
            // Only the deadline bounds the client's reads.
            why = "no response from the server";
            return Attempt::Retry;
        }
        json::Value parsed;
        std::string error;
        if (!json::parse(line, parsed, error)) {
            why = "malformed server line: " + error;
            return Attempt::Hard;
        }
        const json::Value *kind = parsed.find("kind");
        if (kind != nullptr && kind->kind() == json::Kind::String &&
            kind->asString() == kServiceProgressKind) {
            std::uint64_t done = 0;
            std::uint64_t total = 0;
            if (!decodeServiceProgress(parsed, done, total)) {
                why = "malformed server progress line";
                return Attempt::Hard;
            }
            if (progress)
                progress(done, total);
            continue;
        }
        if (!decodeServiceResponse(parsed, response, error)) {
            why = "malformed server response: " + error;
            return Attempt::Hard;
        }
        break;
    }
    if (!response.ok) {
        why = "server error: " + response.error;
        return response.retryable ? Attempt::Retry : Attempt::Hard;
    }
    return Attempt::Ok;
}

} // namespace

ClientResult
Client::call(const ServiceRequest &request,
             const CampaignService::Progress &progress,
             const Retrying &retrying) const
{
    using namespace std::chrono;
    ClientResult result;
    const auto fail = [&result](int exit_code, std::string why) {
        result.exitCode = exit_code;
        result.why = std::move(why);
        return result;
    };
    sockaddr_un addr;
    if (!unixAddress(socketPath, addr))
        return fail(2, "socket path too long: " + socketPath);
    const auto start = steady_clock::now();
    // A budget past the clock's range is no deadline for the reads.
    const std::uint64_t room = static_cast<std::uint64_t>(
        duration_cast<milliseconds>(steady_clock::time_point::max() -
                                    start)
            .count());
    const auto deadline =
        policy.deadlineMs == 0 || policy.deadlineMs >= room
            ? steady_clock::time_point::max()
            : start + milliseconds(policy.deadlineMs);
    const auto elapsedMs = [&start] {
        return static_cast<std::uint64_t>(
            duration_cast<milliseconds>(steady_clock::now() - start)
                .count());
    };

    for (std::uint64_t attempt = 0;; ++attempt) {
        std::string why;
        Attempt got = Attempt::Retry;
        if (const int fd = connectUnix(addr); fd < 0) {
            const int err = errno;
            why = "connect(" + socketPath + "): " + std::strerror(err);
            got = retryableConnectErrno(err) ? Attempt::Retry
                                             : Attempt::Hard;
        } else {
            got = exchange(fd, request, progress, deadline,
                           result.response, why);
            ::close(fd);
        }
        if (got == Attempt::Ok)
            return result;
        if (got == Attempt::Hard)
            return fail(1, why);

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
        // An attempt the deadline cut short ends here too.
        if (policy.deadlineMs != 0 &&
            elapsedMs() + delay >= policy.deadlineMs)
            return fail(3, why + " (deadline of " +
                               std::to_string(policy.deadlineMs) +
                               " ms exceeded)");
        if (attempt >= policy.retries)
            return fail(3, why + " (retries exhausted after " +
                               std::to_string(attempt + 1) +
                               " attempt" + (attempt == 0 ? ")" : "s)"));
        if (retrying)
            retrying(why, delay);
        std::this_thread::sleep_for(milliseconds(delay));
    }
}

} // namespace dfi::inject
