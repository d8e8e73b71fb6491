/**
 * @file
 * Lifecycle tests of the dfi-serve daemon and client (inject/serve.hh)
 * in one process, on a temp socket: drain with handlers mid-stream
 * and with idle connections, the idle and stream bounds, oversized
 * request lines, live/stale/non-socket paths at listen, and the
 * client's retry, deadline (full backlogs included) and exit
 * classification.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "common/json.hh"
#include "common/netio.hh"
#include "inject/serve.hh"
#include "inject/service.hh"
#include "inject/telemetry.hh"

namespace
{

using namespace dfi;
using namespace dfi::inject;
using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

CampaignConfig
smokeConfig()
{
    CampaignConfig cfg;
    cfg.coreName = "marss-x86";
    cfg.benchmark = "micro";
    cfg.component = "int_regfile";
    cfg.numInjections = 24;
    cfg.seed = 7;
    return cfg;
}

ServiceRequest
opRequest(const std::string &op)
{
    ServiceRequest request;
    request.op = op;
    return request;
}

/** A Unix-domain stream socket at `path`: connected, or bound. */
int
rawSocket(const std::string &path, bool connect)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const auto *sa = reinterpret_cast<const sockaddr *>(&addr);
    const int rc = connect ? ::connect(fd, sa, sizeof(addr))
                           : ::bind(fd, sa, sizeof(addr));
    if (fd >= 0 && rc != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** True when `fd` reads EOF within `limit` (bytes before it skipped). */
bool
readsEofWithin(int fd, milliseconds limit)
{
    const Clock::time_point deadline = Clock::now() + limit;
    char buf[4096];
    while (Clock::now() < deadline) {
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, 50) <= 0)
            continue;
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n == 0)
            return true;
        if (n < 0)
            return false;
    }
    return false;
}

/**
 * A Server on a per-test temp socket, run() on its own thread.  Like
 * both tools' main()s, the fixture ignores SIGPIPE: a peer that
 * vanishes makes a write fail with EPIPE instead of killing the test.
 */
class ServeLifecycle : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::signal(SIGPIPE, SIG_IGN);
        const auto *test =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = ::testing::TempDir() + "dfi-" +
                std::to_string(::getpid()) + "-" + test->name() +
                ".sock";
        std::filesystem::remove(path_);
    }

    void
    TearDown() override
    {
        if (runner_.joinable()) {
            server_->stop();
            runner_.join();
        }
        std::filesystem::remove(path_);
    }

    /** Listen on path_ and run the server on its own thread. */
    void
    start(Server::Options bounds = {})
    {
        service_ = std::make_unique<CampaignService>(
            CampaignService::Options{});
        server_ = std::make_unique<Server>(*service_, bounds);
        std::string error;
        ASSERT_TRUE(server_->listen(path_, error)) << error;
        std::promise<void> done;
        returned_ = done.get_future();
        runner_ = std::thread([this, done = std::move(done)]() mutable {
            server_->run();
            done.set_value();
        });
    }

    /** True once run() has returned, waiting at most `limit`. */
    bool
    returnedWithin(milliseconds limit)
    {
        return returned_.wait_for(limit) == std::future_status::ready;
    }

    /** A server counter from the `stats` payload. */
    std::uint64_t
    serverCounter(const char *name) const
    {
        return server_->statsJson()
            .find("server")
            ->find(name)
            ->asUint();
    }

    ClientResult
    call(const ServiceRequest &request, RetryPolicy policy = {})
    {
        return Client{path_, policy}.call(request);
    }

    std::string path_;
    std::unique_ptr<CampaignService> service_;
    std::unique_ptr<Server> server_;
    std::future<void> returned_;
    std::thread runner_;
};

TEST_F(ServeLifecycle, ShutdownMidStreamDeliversTheWholeResponse)
{
    start();
    ServiceRequest request;
    request.config = smokeConfig();

    // The first progress event proves a handler is streaming; only
    // then does a second connection ask the daemon to shut down.
    std::atomic<bool> asked{false};
    const ClientResult served = Client{path_, {}}.call(
        request, [this, &asked](std::uint64_t, std::uint64_t) {
            if (!asked.exchange(true)) {
                EXPECT_EQ(call(opRequest("shutdown")).exitCode, 0);
            }
        });
    EXPECT_TRUE(asked.load());
    ASSERT_EQ(served.exitCode, 0) << served.why;
    EXPECT_EQ(served.response.runsTotal, 24u);
    TelemetryFile runs;
    std::string error;
    ASSERT_TRUE(parseTelemetry(served.response.telemetryRuns, runs, error))
        << error;
    EXPECT_EQ(runs.records.size(), 24u);

    EXPECT_TRUE(returnedWithin(milliseconds(30000)));
    EXPECT_FALSE(std::filesystem::exists(path_));
}

TEST_F(ServeLifecycle, DrainClosesAConnectionThatNeverSentARequest)
{
    Server::Options bounds;
    bounds.idleTimeoutMs = 0; // only the drain can end this handler
    start(bounds);
    const int idle = rawSocket(path_, true);
    ASSERT_GE(idle, 0);
    // Connections are accepted in order: once this ping is answered,
    // the idle connection has a handler blocked on its request.
    ASSERT_EQ(call(opRequest("ping")).exitCode, 0);

    server_->stop();
    const bool returned = returnedWithin(milliseconds(1000));
    const bool closed = readsEofWithin(idle, milliseconds(1000));
    ::close(idle); // releases a handler the drain left waiting
    EXPECT_TRUE(returned);
    EXPECT_TRUE(closed);
    EXPECT_EQ(serverCounter("idle_timeouts"), 0u);
}

TEST_F(ServeLifecycle, IdleTimeoutDropsAndCountsASilentConnection)
{
    Server::Options bounds;
    bounds.idleTimeoutMs = 50;
    start(bounds);
    const int idle = rawSocket(path_, true);
    ASSERT_GE(idle, 0);
    EXPECT_TRUE(readsEofWithin(idle, milliseconds(30000)));
    ::close(idle);
    EXPECT_EQ(serverCounter("idle_timeouts"), 1u);
    EXPECT_EQ(call(opRequest("ping")).exitCode, 0);
}

TEST_F(ServeLifecycle, StalledReaderIsDroppedAndTheNextRequestServed)
{
    Server::Options bounds;
    bounds.streamTimeoutMs = 200;
    bounds.sndbufBytes = 1; // the kernel's minimum: progress fills it
    start(bounds);
    ServiceRequest request;
    request.config = smokeConfig();

    // Send a campaign request and never read the stream.
    const int stalled = rawSocket(path_, true);
    ASSERT_GE(stalled, 0);
    ASSERT_TRUE(netio::writeLine(stalled, encodeServiceRequest(request)));
    const Clock::time_point deadline = Clock::now() + milliseconds(60000);
    while (serverCounter("dropped_streams") == 0 &&
           Clock::now() < deadline)
        std::this_thread::sleep_for(milliseconds(10));
    EXPECT_EQ(serverCounter("dropped_streams"), 1u);
    EXPECT_TRUE(readsEofWithin(stalled, milliseconds(30000)));
    ::close(stalled);

    // The worker slot is free again: the same campaign is served (a
    // client that reads, retried if a loaded host stalls it too).
    RetryPolicy policy;
    policy.retries = 3;
    const ClientResult next = call(request, policy);
    ASSERT_EQ(next.exitCode, 0) << next.why;
    EXPECT_EQ(next.response.runsTotal, 24u);
}

TEST_F(ServeLifecycle, OversizedRequestLineGetsAnErrorResponse)
{
    start();
    const int fd = rawSocket(path_, true);
    ASSERT_GE(fd, 0);
    // Exactly one byte over the request bound, so the server reads it
    // all.  Only responses may be as long as kMaxLineBytes.
    ASSERT_TRUE(
        netio::writeAll(fd, std::string(kMaxRequestLineBytes + 1, 'x')));

    std::string line;
    netio::LineReader reader(fd, kMaxLineBytes);
    ASSERT_EQ(reader.next(line), netio::ReadResult::Line);
    json::Value parsed;
    ServiceResponse response;
    std::string error;
    ASSERT_TRUE(json::parse(line, parsed, error)) << error;
    ASSERT_TRUE(decodeServiceResponse(parsed, response, error)) << error;
    EXPECT_FALSE(response.ok);
    EXPECT_FALSE(response.retryable);
    EXPECT_NE(response.error.find("request line exceeds " +
                                  std::to_string(kMaxRequestLineBytes)),
              std::string::npos)
        << response.error;
    ::close(fd);
}

TEST_F(ServeLifecycle, ListenRefusesLiveAndNonSocketPathsAndReplacesStale)
{
    start();
    CampaignService other_service(CampaignService::Options{});
    std::string error;
    {
        Server other(other_service, {});
        EXPECT_FALSE(other.listen(path_, error));
        EXPECT_NE(error.find("live daemon"), std::string::npos) << error;
    }
    // The refused server left the live socket alone.
    EXPECT_EQ(call(opRequest("ping")).exitCode, 0);

    const std::string file = path_ + ".file";
    std::ofstream(file) << "not a socket\n";
    {
        Server other(other_service, {});
        EXPECT_FALSE(other.listen(file, error));
        EXPECT_NE(error.find("not a socket"), std::string::npos) << error;
    }
    EXPECT_TRUE(std::filesystem::is_regular_file(file));
    std::filesystem::remove(file);

    // A socket file nobody listens on: a daemon died without cleanup.
    const std::string stale = path_ + ".stale";
    const int debris = rawSocket(stale, false);
    ASSERT_GE(debris, 0);
    ::close(debris);
    ASSERT_TRUE(std::filesystem::is_socket(stale));
    {
        Server other(other_service, {});
        EXPECT_TRUE(other.listen(stale, error)) << error;
        const int probe = rawSocket(stale, true);
        EXPECT_GE(probe, 0);
        ::close(probe);
    }
    // Never served, so the destructor closed and unlinked it.
    EXPECT_FALSE(std::filesystem::exists(stale));
}

TEST_F(ServeLifecycle, ClientDeadlineBoundsAnAttemptNobodyAnswers)
{
    // Connections queue in the backlog and are never accepted.
    const int mute = rawSocket(path_, false);
    ASSERT_GE(mute, 0);
    ASSERT_EQ(::listen(mute, 8), 0);

    RetryPolicy policy;
    policy.retries = 3;
    policy.deadlineMs = 300;
    std::future<ClientResult> pending = std::async(
        std::launch::async, [&] { return call(opRequest("ping"), policy); });
    const bool in_time = pending.wait_for(milliseconds(300 + 1000)) ==
                         std::future_status::ready;
    ::close(mute); // resets a connection the client still waits on
    const ClientResult result = pending.get();
    EXPECT_TRUE(in_time);
    EXPECT_EQ(result.exitCode, 3);
    EXPECT_NE(result.why.find("deadline of 300 ms exceeded"),
              std::string::npos)
        << result.why;
}

TEST_F(ServeLifecycle, ClientDeadlineBoundsAConnectToAFullBacklog)
{
    // A listener that accepts nothing, with one connection queued:
    // its backlog of 0 is full, so every further connect waits.
    const int full = rawSocket(path_, false);
    ASSERT_GE(full, 0);
    ASSERT_EQ(::listen(full, 0), 0);
    const int queued = rawSocket(path_, true);
    ASSERT_GE(queued, 0);

    RetryPolicy policy;
    policy.retries = 100;
    policy.backoffMs = 10;
    policy.deadlineMs = 500;
    std::future<ClientResult> pending = std::async(
        std::launch::async, [&] { return call(opRequest("ping"), policy); });
    const bool in_time = pending.wait_for(milliseconds(500 + 1000)) ==
                         std::future_status::ready;
    ::close(full); // refuses a connect the client still waits in
    const ClientResult result = pending.get();
    ::close(queued);
    EXPECT_TRUE(in_time);
    EXPECT_EQ(result.exitCode, 3);
    EXPECT_NE(result.why.find("connect("), std::string::npos) << result.why;
    EXPECT_NE(result.why.find("deadline of 500 ms exceeded"),
              std::string::npos)
        << result.why;
}

TEST_F(ServeLifecycle, ClientRetriesARefusedPathThenExits3)
{
    RetryPolicy policy;
    policy.retries = 2;
    policy.backoffMs = 1;
    int retried = 0;
    const ClientResult result =
        Client{path_, policy}.call(opRequest("ping"), {},
                                   [&retried](const std::string &why,
                                              std::uint64_t) {
                                       ++retried;
                                       EXPECT_NE(why.find("connect("),
                                                 std::string::npos);
                                   });
    EXPECT_EQ(result.exitCode, 3);
    EXPECT_EQ(retried, 2);
    EXPECT_NE(result.why.find("retries exhausted after 3 attempts"),
              std::string::npos)
        << result.why;
}

TEST_F(ServeLifecycle, ClientRetrySucceedsOnceTheDaemonListens)
{
    RetryPolicy policy;
    policy.retries = 5;
    policy.backoffMs = 1;
    // The widest budget the flag accepts must not wrap the clock.
    policy.deadlineMs = std::numeric_limits<std::uint64_t>::max();
    // The daemon comes up during the first backoff; the retry that
    // follows is served, and only its outcome counts.
    const ClientResult result = Client{path_, policy}.call(
        opRequest("ping"), {}, [this](const std::string &, std::uint64_t) {
            if (server_ == nullptr)
                start();
        });
    EXPECT_EQ(result.exitCode, 0) << result.why;
    EXPECT_TRUE(result.response.ok);
    EXPECT_TRUE(result.why.empty()) << result.why;
}

TEST_F(ServeLifecycle, ClientExits1OnANonRetryableServerError)
{
    start();
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.component = "no_such_unit";
    RetryPolicy policy;
    policy.retries = 2;
    int retried = 0;
    const ClientResult result = Client{path_, policy}.call(
        request, {},
        [&retried](const std::string &, std::uint64_t) { ++retried; });
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_EQ(retried, 0);
    EXPECT_NE(result.why.find("server error"), std::string::npos)
        << result.why;
}

} // namespace
