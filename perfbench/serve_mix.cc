/**
 * @file
 * serve-mix: dfi-serve driven as a closed loop of two connections.
 *
 * Set-up models a redeploy (memory cold, disk warm): a first daemon
 * on a fresh cache directory is primed with one request per program
 * and sent SIGTERM, then the measured daemon starts over the same
 * directory.  The timed traffic is a seeded stream of two request
 * classes, assigned by what a request shares with earlier traffic and
 * never by how the server answered it:
 *
 *  - sweep:  a new (structure, seed) on a primed program;
 *  - repeat: an exact resubmission of an earlier request whose
 *            response has already arrived.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "bench.hh"
#include "common/netio.hh"
#include "common/rng.hh"
#include "inject/service.hh"
#include "inject/telemetry.hh"
#include "trace.hh"

extern char **environ;

namespace perfbench
{

using dfi::inject::CampaignConfig;
using dfi::inject::ServiceRequest;
using dfi::inject::ServiceResponse;

namespace
{

/** The primed programs: two per core model, similar prepare cost. */
struct Program
{
    const char *core;
    const char *program;
};
const std::vector<Program> kPrograms = {
    {"marss-x86", "sha"}, {"marss-x86", "smooth"},
    {"gem5-x86", "sha"},  {"gem5-x86", "smooth"},
    {"gem5-arm", "sha"},  {"gem5-arm", "smooth"},
};

const std::vector<const char *> kStructures = {
    "int_regfile", "l1d", "l1i", "l2", "lsq"};

/**
 * Injections per request, the size of the served smoke campaigns of
 * scripts/check_service.sh.  No request log exists to take it from
 * (README, "Traffic assumptions").
 */
constexpr std::uint64_t kInjections = 24;

/**
 * Repeats per sweep in the stream.  One, the least the stream can
 * hold, still gives the run enough repeats (120) for a guarded p90.
 * A guess too (README).
 */
constexpr std::size_t kRepeatsPerSweep = 1;

constexpr std::uint32_t kConnections = 2;

/**
 * The stream runs in this many batches, with a set-up after each (and,
 * in a traced run, each batch untraced and then traced).
 */
constexpr std::size_t kBatches = 4;

/**
 * Host seconds one sweep of every (program, structure) pair, with its
 * repeats, takes on the reference host (README).
 */
constexpr double kNominalPassSeconds = 8.5;

/**
 * Every (program, structure) pair is swept the same number of times
 * per run, in a seeded order, so the seed never changes which work is
 * done.  The count is a multiple of kBatches, so every batch sweeps
 * every pair equally often; the least, kBatches, gives 120 sweeps,
 * enough for the percentile guard at p90.
 */
std::uint32_t
sweepsPerPair(double seconds)
{
    return kBatches *
           std::max<std::uint32_t>(
               1, static_cast<std::uint32_t>(std::lround(
                      seconds / (kBatches * kNominalPassSeconds))));
}

/** Upper bound on one protocol line, as dfi-serve has it. */
constexpr std::size_t kMaxLineBytes = 256ull << 20;

/** One dfi-serve daemon process; stopped (and reaped) on scope exit. */
class Daemon
{
  public:
    Daemon(const Options &options, const std::string &socket,
           const std::string &cache_dir, const std::string &log)
        : socket_(socket)
    {
        const std::vector<std::string> args = {
            options.serveBin, "--socket", socket, "--workers",
            std::to_string(kConnections), "--cache-dir", cache_dir};
        std::vector<char *> argv;
        for (const std::string &arg : args)
            argv.push_back(const_cast<char *>(arg.c_str()));
        argv.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                         log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                         STDERR_FILENO);
        const int rc = posix_spawn(&pid_, options.serveBin.c_str(),
                                   &actions, nullptr, argv.data(),
                                   environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0)
            pid_ = -1;
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool running() const { return pid_ > 0; }
    pid_t pid() const { return pid_; }
    const std::string &socket() const { return socket_; }

    /** SIGTERM (the daemon drains), then reap; SIGKILL after 60 s. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        for (int waited_ms = 0; waited_ms < 60000; ++waited_ms) {
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            ::usleep(1000);
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

int
connectTo(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** What one request got back, and when. */
struct Reply
{
    bool ok = false;
    std::string error;
    ServiceResponse response;
    double latencyMs = 0.0;       //!< request written -> response read
    double firstProgressMs = 0.0; //!< request written -> first progress
    std::size_t lineBytes = 0;
};

/**
 * One request over a fresh connection (the protocol serves one per
 * connection).  The clock runs from the request write to the read of
 * the response line; decoding happens after it stops.
 */
Reply
sendRequest(const std::string &socket, const ServiceRequest &request)
{
    Reply reply;
    const int fd = connectTo(socket);
    if (fd < 0) {
        reply.error = "connect(" + socket + "): " + std::strerror(errno);
        return reply;
    }
    const std::string line =
        dfi::inject::encodeServiceRequest(request).dump() + "\n";
    dfi::netio::LineReader reader(fd, kMaxLineBytes);
    std::string got;
    const Clock::time_point started = Clock::now();
    if (!dfi::netio::writeAll(fd, line)) {
        ::close(fd);
        reply.error = "request write failed";
        return reply;
    }
    for (;;) {
        if (reader.next(got) != dfi::netio::ReadResult::Line) {
            ::close(fd);
            reply.error = "connection ended without a response";
            return reply;
        }
        if (got.find("\"dfi-progress\"") == std::string::npos)
            break;
        if (reply.firstProgressMs == 0.0)
            reply.firstProgressMs = 1e3 * secondsSince(started);
    }
    reply.latencyMs = 1e3 * secondsSince(started);
    ::close(fd);
    reply.lineBytes = got.size();
    dfi::json::Value parsed;
    if (!dfi::json::parse(got, parsed, reply.error) ||
        !dfi::inject::decodeServiceResponse(parsed, reply.response,
                                            reply.error))
        return reply;
    reply.ok = reply.response.ok;
    if (!reply.ok)
        reply.error = reply.response.error;
    return reply;
}

ServiceRequest
pingRequest()
{
    ServiceRequest request;
    request.op = "ping";
    request.client = "perfbench";
    return request;
}

/** Poll the daemon with pings until one is answered (or 30 s pass). */
bool
waitForPing(const Daemon &daemon)
{
    const Clock::time_point started = Clock::now();
    while (secondsSince(started) < 30.0) {
        if (sendRequest(daemon.socket(), pingRequest()).ok)
            return true;
        ::usleep(2000);
    }
    return false;
}

ServiceRequest
campaignRequest(const Program &program, const char *structure,
                std::uint64_t seed, std::uint32_t connection)
{
    ServiceRequest request;
    request.client = "perfbench-" + std::to_string(connection);
    CampaignConfig &config = request.config;
    config.coreName = program.core;
    config.benchmark = program.program;
    config.component = structure;
    config.numInjections = kInjections;
    config.seed = seed;
    return request;
}

/** The primes: one request per program, the same for every seed. */
std::vector<ServiceRequest>
primeRequests()
{
    std::vector<ServiceRequest> primes;
    for (std::size_t i = 0; i < kPrograms.size(); ++i)
        primes.push_back(
            campaignRequest(kPrograms[i], "int_regfile", 1 + i, 0));
    return primes;
}

/** One entry of the timed stream. */
struct Planned
{
    bool repeat = false;
    std::size_t program = 0;
    ServiceRequest request;
    /** Repeats: stream index of the original, or -1 - prime index. */
    long target = 0;
};

/** One sweep of the stream: a (program, structure) pair in a pass. */
struct Sweep
{
    std::size_t program;
    std::size_t structure;
    /** Fixed number of the sweep; its request seed comes from it. */
    std::size_t number;
};

/**
 * The seeded stream: `sweeps_per_pair` passes over every (program,
 * structure) pair, each pass in a seeded order, with kRepeatsPerSweep
 * repeats per sweep interleaved at seeded positions within each batch.
 * Each batch holds whole passes, in pass order.  A sweep's request
 * seed comes from kWorkSeed and its pass and pair alone, so every
 * batch does the same work whatever the run seed.  A repeat resubmits
 * a prime or an earlier sweep.
 */
std::vector<Planned>
planStream(std::uint64_t seed, std::uint32_t sweeps_per_pair)
{
    dfi::Rng rng(mixSeed(seed, 1));
    const std::size_t per_pass = kPrograms.size() * kStructures.size();
    std::vector<Sweep> pairs;
    for (std::uint32_t pass = 0; pass < sweeps_per_pair; ++pass) {
        std::vector<Sweep> order;
        for (std::size_t p = 0; p < kPrograms.size(); ++p) {
            for (std::size_t s = 0; s < kStructures.size(); ++s)
                order.push_back(Sweep{p, s, pass * per_pass + order.size()});
        }
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.nextBounded(i)]);
        pairs.insert(pairs.end(), order.begin(), order.end());
    }
    // Every batch holds the same passes' worth of sweeps and repeats, so
    // what a batch does never swings with the seed.
    std::vector<bool> is_repeat;
    const std::size_t sweeps_per_batch = pairs.size() / kBatches;
    for (std::size_t batch = 0; batch < kBatches; ++batch) {
        std::vector<bool> classes(
            (1 + kRepeatsPerSweep) * sweeps_per_batch, false);
        for (std::size_t i = 0; i < kRepeatsPerSweep * sweeps_per_batch;
             ++i)
            classes[i] = true;
        for (std::size_t i = classes.size(); i > 1; --i) {
            const std::size_t j = rng.nextBounded(i);
            const bool tmp = classes[i - 1];
            classes[i - 1] = classes[j];
            classes[j] = tmp;
        }
        is_repeat.insert(is_repeat.end(), classes.begin(), classes.end());
    }

    const std::vector<ServiceRequest> primes = primeRequests();
    std::vector<Planned> stream;
    std::vector<std::size_t> sweeps;
    std::size_t next_pair = 0;
    for (std::size_t i = 0; i < is_repeat.size(); ++i) {
        Planned planned;
        if (is_repeat[i]) {
            const std::size_t pick =
                rng.nextBounded(primes.size() + sweeps.size());
            planned.repeat = true;
            if (pick < primes.size()) {
                planned.target = -1 - static_cast<long>(pick);
                planned.program = pick;
                planned.request = primes[pick];
            } else {
                const Planned &original = stream[sweeps[pick - primes.size()]];
                planned.target =
                    static_cast<long>(sweeps[pick - primes.size()]);
                planned.program = original.program;
                planned.request = original.request;
            }
        } else {
            const Sweep &sweep = pairs[next_pair];
            planned.program = sweep.program;
            planned.request = campaignRequest(
                kPrograms[sweep.program], kStructures[sweep.structure],
                mixSeed(kWorkSeed, 100 + sweep.number) >> 16, 0);
            ++next_pair;
            sweeps.push_back(i);
        }
        stream.push_back(std::move(planned));
    }
    return stream;
}

/**
 * Send `requests` over kConnections closed-loop connections and wait
 * for every answer.
 */
std::vector<Reply>
sendAll(const std::string &socket,
        const std::vector<ServiceRequest> &requests)
{
    std::vector<Reply> replies(requests.size());
    std::mutex mu;
    std::size_t next = 0;
    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            for (;;) {
                std::size_t i = 0;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    if (next >= requests.size())
                        return;
                    i = next++;
                }
                ServiceRequest request = requests[i];
                request.client = "perfbench-" + std::to_string(c);
                replies[i] = sendRequest(socket, request);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    return replies;
}

/** A measured daemon, ready for traffic, plus what set-up cost. */
struct Deployment
{
    std::unique_ptr<Daemon> daemon;
    std::vector<Reply> primes;
    double setupSeconds = 0.0;
};

/**
 * The redeploy set-up: fresh cache directory, first daemon primed
 * with one request per program, SIGTERM, measured daemon started over
 * the same directory; the clock stops when it answers a ping.
 */
Deployment
deploy(const Options &options, const std::string &dir, Outcome &out)
{
    removeTree(dir);
    makeDirs(dir + "/cache");
    Deployment deployment;
    trace::Span setup("serve.setup", dir);
    const Clock::time_point started = Clock::now();
    {
        Daemon primer(options, dir + "/primer.sock", dir + "/cache",
                      dir + "/primer.log");
        {
            trace::Span span("serve.daemon_start", "primer");
            out.check(primer.running() && waitForPing(primer),
                      "the priming daemon did not start");
        }
        {
            trace::Span span("serve.prime", "primer");
            deployment.primes = sendAll(primer.socket(), primeRequests());
        }
        trace::Span span("serve.sigterm", "primer");
        primer.stop();
    }
    {
        trace::Span span("serve.daemon_start", "measured");
        deployment.daemon = std::make_unique<Daemon>(
            options, dir + "/serve.sock", dir + "/cache",
            dir + "/serve.log");
        out.check(deployment.daemon->running() &&
                      waitForPing(*deployment.daemon),
                  "the measured daemon did not start");
    }
    deployment.setupSeconds = secondsSince(started);
    for (const Reply &reply : deployment.primes) {
        ++out.attempted;
        out.check(reply.ok, "prime request failed: " + reply.error);
    }
    return deployment;
}

/** What one timed pass over the stream measured. */
struct Pass
{
    std::vector<Reply> replies;
    std::uint64_t answered = 0; //!< planned runs answered, all batches
    double seconds = 0.0;       //!< wall time of all batches
    std::uint64_t planned = 0;
    double peakRssMiB = 0.0;

    /** Planned runs answered per second of traffic over the pass. */
    double runsPerS() const { return answered / seconds; }
};

/**
 * Drive batch number `batch` of the stream (one of kBatches equal
 * slices) through a deployed daemon into `pass`: kConnections threads,
 * each sending its next request when its previous one is answered,
 * and the batch ends when all its requests are answered.  A repeat
 * whose original is still in flight on the other connection waits for
 * it first (outside its latency).
 */
void
timedBatch(Pass &pass, const Deployment &deployment,
           const std::vector<Planned> &stream, std::size_t batch)
{
    const std::size_t begin = stream.size() * batch / kBatches;
    const std::size_t end = stream.size() * (batch + 1) / kBatches;
    pass.replies.resize(stream.size());
    std::mutex mu;
    std::condition_variable answered;
    std::vector<bool> done(stream.size(), false);
    const std::string &socket = deployment.daemon->socket();

    trace::Span timed("serve.batch", std::to_string(batch + 1));
    const int parent = trace::current();
    std::size_t next = begin;
    const Clock::time_point started = Clock::now();
    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            for (;;) {
                std::size_t i = 0;
                {
                    std::unique_lock<std::mutex> lock(mu);
                    if (next >= end)
                        return;
                    i = next++;
                    // Originals in earlier batches are answered.
                    const long target = stream[i].target;
                    if (stream[i].repeat &&
                        target >= static_cast<long>(begin)) {
                        answered.wait(lock, [&] {
                            return done[static_cast<std::size_t>(target)];
                        });
                    }
                }
                ServiceRequest request = stream[i].request;
                request.client = "perfbench-" + std::to_string(c);
                Reply reply;
                {
                    trace::Span span(stream[i].repeat ? "serve.repeat"
                                                      : "serve.sweep",
                                     "req" + std::to_string(i), parent);
                    reply = sendRequest(socket, request);
                }
                std::lock_guard<std::mutex> lock(mu);
                pass.replies[i] = std::move(reply);
                done[i] = true;
                answered.notify_all();
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    const double seconds = secondsSince(started);
    std::uint64_t runs = 0;
    for (std::size_t i = begin; i < end; ++i)
        runs += pass.replies[i].ok ? pass.replies[i].response.runsTotal : 0;
    pass.answered += runs;
    pass.seconds += seconds;
    std::fprintf(stderr, "  batch %zu: %llu runs in %.3f s\n", batch + 1,
                 static_cast<unsigned long long>(runs), seconds);
}

/**
 * Check a pass whose batches have all run: every response is ok and
 * every repeat is byte-equal to its original.  Also reads the daemon's
 * peak resident set.
 */
void
finishPass(Pass &pass, const Deployment &deployment,
           const std::vector<Planned> &stream, Outcome &out)
{
    pass.peakRssMiB = peakRssMiB(std::to_string(deployment.daemon->pid()));
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const Reply &reply = pass.replies[i];
        ++out.attempted;
        if (!reply.ok) {
            out.fail("request " + std::to_string(i) + " failed: " +
                     reply.error);
            continue;
        }
        pass.planned += reply.response.runsTotal;
        if (!stream[i].repeat)
            continue;
        const long target = stream[i].target;
        const Reply &original =
            target >= 0 ? pass.replies[static_cast<std::size_t>(target)]
                        : deployment.primes[static_cast<std::size_t>(
                              -1 - target)];
        out.check(original.ok &&
                      reply.response.telemetryRuns ==
                          original.response.telemetryRuns &&
                      reply.response.telemetrySummary ==
                          original.response.telemetrySummary,
                  "repeat request " + std::to_string(i) +
                      " is not byte-equal to its original");
    }
}

/** Simulated runs and run cycles the served artifacts record. */
void
countServedWork(const std::string &runs, std::uint64_t &simulated,
                std::uint64_t &run_cycles)
{
    dfi::inject::TelemetryFile file;
    std::string error;
    if (!dfi::inject::parseTelemetry(runs, file, error))
        return;
    if (const dfi::json::Value *prune = file.header.find("prune")) {
        if (const dfi::json::Value *sim = prune->find("simulated"))
            simulated += sim->asUint();
    }
    for (const dfi::inject::TelemetryRecord &record : file.records)
        run_cycles += record.cycles;
}

} // namespace

void
runServeMix(const Options &options, Outcome &out)
{
    checkGoldenSmoke(options, out);
    const std::string base = options.stateDir + "/serve-mix";
    const std::vector<Planned> stream =
        planStream(options.seed, sweepsPerPair(options.seconds));

    // The first deployment takes the traffic.
    std::vector<double> setups;
    Deployment deployment = deploy(options, base + "/serve", out);
    setups.push_back(deployment.setupSeconds);

    // The traced run also drives a deployment of its own untraced,
    // each batch just before the traced one, so the tracing overhead
    // compares like with like, close in time.
    Deployment untraced_deployment;
    if (options.trace) {
        trace::enable(false);
        untraced_deployment = deploy(options, base + "/untraced", out);
        trace::enable(true);
    }
    Pass untraced, pass;
    for (std::size_t batch = 0; batch < kBatches; ++batch) {
        if (options.trace) {
            trace::enable(false);
            timedBatch(untraced, untraced_deployment, stream, batch);
            trace::enable(true);
        }
        timedBatch(pass, deployment, stream, batch);
        // One more set-up, over a directory of its own while the
        // measured daemon idles, so setup_s (their median) samples the
        // same host phases as the traffic rather than one window at
        // the start.
        setups.push_back(deploy(options, base + "/setup", out).setupSeconds);
    }
    if (options.trace) {
        finishPass(untraced, untraced_deployment, stream, out);
        untraced_deployment.daemon->stop();
    }
    finishPass(pass, deployment, stream, out);

    // Served artifacts must equal an in-process run of the same
    // config; a seeded sample of the sweeps, outside the timed phase.
    std::vector<std::size_t> sweeps;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (!stream[i].repeat)
            sweeps.push_back(i);
    }
    dfi::Rng rng(mixSeed(options.seed, 2));
    std::uint64_t local_cycles = 0, local_micros = 0;
    std::uint64_t local_executed = 0;
    std::uint64_t local_early = 0;
    double local_seconds = 0.0;
    for (int k = 0; k < 4; ++k) {
        const std::size_t i = sweeps[rng.nextBounded(sweeps.size())];
        const Reply &reply = pass.replies[i];
        CampaignConfig config = stream[i].request.config;
        config.telemetryCapture = true;
        ++out.attempted;
        dfi::inject::CampaignResult local;
        try {
            dfi::inject::InjectionCampaign campaign(config);
            campaign.prepared();
            const Clock::time_point started = Clock::now();
            local = campaign.run();
            local_seconds += secondsSince(started);
        } catch (const std::exception &err) {
            out.fail("in-process run of request " + std::to_string(i) +
                     ": " + err.what());
            continue;
        }
        out.check(reply.ok &&
                      local.telemetryRuns == reply.response.telemetryRuns &&
                      local.telemetrySummary ==
                          reply.response.telemetrySummary,
                  "served request " + std::to_string(i) +
                      " is not byte-equal to an in-process run");
        local_cycles += local.simulatedFaultyCycles;
        local_micros += local.totalWallMicros;
        local_executed += local.records.size();
        for (const dfi::syskit::RunRecord &record : local.records)
            local_early += record.earlyStopMasked ? 1 : 0;
    }

    // Classes, cache tiers and the mix guard.
    std::map<std::string, std::uint64_t> sources;
    // Latencies per class.
    std::vector<double> sweep_ms, repeat_ms;
    std::vector<double> first_progress_ms;
    std::uint64_t sweep_count = 0, repeat_count = 0;
    std::uint64_t simulated = 0, run_cycles = 0, cold = 0;
    std::uint64_t rejections = 0, reused = 0;
    std::uint64_t telemetry_bytes = 0, sweep_runs = 0, line_bytes = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const Reply &reply = pass.replies[i];
        const bool repeat = stream[i].repeat;
        const char *cls = repeat ? "repeat" : "sweep";
        if (!reply.ok) {
            rejections += reply.response.retryable ? 1 : 0;
            continue;
        }
        const ServiceResponse &response = reply.response;
        ++sources[response.cacheSource + "." + cls];
        cold += response.cacheSource == "none" ? 1 : 0;
        countServedWork(response.telemetryRuns, simulated, run_cycles);
        line_bytes += reply.lineBytes;
        (repeat ? repeat_ms : sweep_ms).push_back(reply.latencyMs);
        repeat_count += repeat ? 1 : 0;
        if (!repeat) {
            ++sweep_count;
            reused += response.cacheHit ? 1 : 0;
            // A sweep whose runs were all pruned simulates nothing and
            // streams no progress.
            if (reply.firstProgressMs > 0.0)
                first_progress_ms.push_back(reply.firstProgressMs);
            telemetry_bytes += response.telemetryRuns.size() +
                               response.telemetrySummary.size();
            sweep_runs += response.runsTotal;
        }
    }
    out.mix["requests.sweep"] = sweep_count;
    out.mix["requests.repeat"] = repeat_count;
    out.mix["runs.planned"] = pass.planned;
    out.mix["runs.simulated"] = simulated;
    out.mix["run_cycles"] = run_cycles;
    out.mix["prepared_cold"] = cold;
    out.mix["rejections"] = rejections;
    for (const auto &[source, count] : sources)
        out.mixInfo["source." + source] = count;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (pass.replies[i].ok && !stream[i].repeat)
            out.artifacts["req" + std::to_string(i)] =
                digestOf(pass.replies[i].response.telemetryRuns +
                         pass.replies[i].response.telemetrySummary);
    }
    if (options.trace) {
        for (std::size_t i = 0; i < stream.size(); ++i) {
            out.check(untraced.replies[i].ok == pass.replies[i].ok &&
                          untraced.replies[i].response.telemetryRuns ==
                              pass.replies[i].response.telemetryRuns,
                      "traced request " + std::to_string(i) +
                          " differs from the untraced pass");
        }
    }

    if (!options.trace) {
        out.e2e("setup_s", median(setups), "s");
        out.e2e("runs_per_s", pass.runsPerS(), "runs/s");
        reportLatencies(out, sweep_ms, repeat_ms);
        return;
    }

    // Transport: ping round trips on the idle measured daemon.
    std::vector<double> ping_ms;
    for (int i = 0; i < 200; ++i) {
        trace::Span span("serve.ping", "");
        const Reply reply =
            sendRequest(deployment.daemon->socket(), pingRequest());
        if (reply.ok)
            ping_ms.push_back(reply.latencyMs);
    }
    deployment.daemon->stop();

    out.layer("peak_rss_mb", pass.peakRssMiB, "MiB");
    reportRepeatTail(out, repeat_ms);
    LayerSamples samples;
    for (std::size_t p = 0; p < kPrograms.size(); ++p) {
        const ServiceRequest prime = primeRequests()[p];
        const std::string id =
            std::string(kPrograms[p].core) + "/" + kPrograms[p].program;
        try {
            probePrepare(prime.config, id, samples, out);
            dfi::inject::InjectionCampaign campaign(prime.config);
            probePlanAndRestore(prime.config, *campaign.prepared(), id,
                                mixSeed(options.seed, 1000 + p), 200,
                                samples);
        } catch (const std::exception &err) {
            out.fail("layer probe " + id + ": " + err.what());
        }
    }
    reportLayerSamples(out, samples);

    out.layer("uarch.faulty_kcycles_per_s",
              local_micros > 0 ? local_cycles / (local_micros / 1e6) / 1e3
                               : 0.0,
              "kcycles/s");
    out.layer("uarch.sim_cycles", static_cast<double>(local_cycles),
              "count");
    out.layer("prune.simulated_ratio",
              pass.planned > 0 ? static_cast<double>(simulated) / pass.planned
                               : 0.0,
              "ratio");
    // Per-run wall times stay inside the daemon (timing capture is off
    // for served requests), so the run percentiles are not measured.
    out.layer("run.ms.p50", 0.0, "ms");
    out.layer("run.ms.p99", 0.0, "ms");
    out.layer("run.early_stop_ratio",
              local_executed > 0
                  ? static_cast<double>(local_early) / local_executed
                  : 0.0,
              "ratio");
    out.layer("executor.busy_ratio",
              local_seconds > 0.0 ? local_micros / 1e6 / local_seconds : 0.0,
              "ratio");
    out.layer("telemetry.kb_per_run",
              sweep_runs > 0 ? telemetry_bytes / 1024.0 / sweep_runs : 0.0,
              "KiB");
    for (const char *tier : {"none", "memory", "flight", "disk", "response"}) {
        for (const char *cls : {"sweep", "repeat"}) {
            const std::string key = std::string(tier) + "." + cls;
            out.layer("service.source." + key,
                      static_cast<double>(sources.count(key) ? sources[key]
                                                             : 0),
                      "count");
        }
    }
    out.layer("service.prep_reuse_ratio",
              sweep_count > 0 ? static_cast<double>(reused) / sweep_count
                              : 0.0,
              "ratio");
    out.layer("serve.first_progress_ms.p50",
              guardedPercentile(out, "serve.first_progress_ms.p50",
                                first_progress_ms, 0.5),
              "ms");
    out.layer("transport.ping_ms.p50",
              guardedPercentile(out, "transport.ping_ms.p50", ping_ms, 0.5),
              "ms");
    out.layer("transport.response_kb",
              line_bytes / 1024.0 / static_cast<double>(stream.size()),
              "KiB");
    // Every request is on a primed program; repeats are the exact
    // resubmissions.
    out.layer("share.same_program", 1.0, "ratio");
    out.layer("share.repeat",
              static_cast<double>(repeat_count) / stream.size(),
              "ratio");
    out.layer("trace.runs_per_s", pass.runsPerS(), "runs/s");
    out.layer("trace.overhead_pct",
              100.0 * (1.0 - pass.runsPerS() / untraced.runsPerS()), "%");
}

} // namespace perfbench
