/**
 * @file
 * dfi-serve: persistent campaign service daemon — and its client.
 *
 * Server mode (`--socket`) serves campaign requests from a long-lived
 * process, so the golden run and checkpoint store of a repeated
 * (program, core, config) are simulated once and reused from a
 * content-addressed warm cache (inject/service.hh).  Requests admit
 * FIFO with per-client quotas onto `--workers` concurrent execution
 * slots, whose faulty runs share one task pool as wide as the
 * hardware threads; `--cache-dir` persists prepared state and memoized responses
 * across restarts; SIGTERM/SIGINT drain gracefully (finish admitted
 * requests, refuse new ones, then exit).
 *
 * Client mode (`--connect`) submits one request and exits: the
 * campaign flags are dfi-campaign's own, registered by
 * inject::bindCampaignFlags, progress streams to stderr, and
 * `--telemetry-out BASE` writes the returned artifacts to
 * BASE.jsonl/BASE.summary.json — byte-identical to what a local
 * `dfi-campaign --telemetry-out` run would produce, which is what
 * lets CI `dfi-diff --exact` served output against results/golden/.
 * It exits 0 on success, 1 on a hard error, 2 on a usage error, 3
 * with retries or deadline exhausted.
 *
 * The daemon with its bounds and drain, and the retrying client, are
 * inject::Server and inject::Client (inject/serve.hh, DESIGN.md
 * §11–§12).  This file binds their flags, arms `--failpoints` /
 * DFI_FAILPOINTS (common/failpoint.hh), wires SIGTERM/SIGINT to the
 * drain, and prints.
 *
 * Examples:
 *   dfi-serve --socket /tmp/dfi.sock --cache-budget 1024
 *   dfi-serve --connect /tmp/dfi.sock --core gem5-arm \
 *             --benchmark micro --component int_regfile \
 *             --injections 24 --seed 7 --telemetry-out smoke
 *   dfi-serve --connect /tmp/dfi.sock --stats
 *   dfi-serve --connect /tmp/dfi.sock --shutdown
 */

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>

#include "common/cli.hh"
#include "common/failpoint.hh"
#include "common/version.hh"
#include "inject/serve.hh"
#include "inject/telemetry.hh"

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

/** The daemon SIGTERM/SIGINT drain; set before they are handled. */
Server *g_server = nullptr;

} // namespace

int
main(int argc, char **argv)
try {
    std::string socket_path;
    std::string connect_path;
    std::string telemetry_out;
    bool op_ping = false, op_stats = false, op_shutdown = false;
    std::uint64_t cache_budget_mb = 1024;
    CampaignService::Options options;
    Server::Options bounds;
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
                 "campaigns executing simultaneously\n"
                 "(default 1); their runs share one\n"
                 "pool as wide as the hardware threads",
                 &options.workers);
    flags.text("--cache-dir", "DIR",
               "persist prepared state and memoized\n"
               "responses here across restarts",
               &options.cacheDir);
    flags.uint64("--idle-timeout-ms", "MS",
                 "drop a connection that sends no\n"
                 "request within MS (default 30000;\n"
                 "0 waits forever)",
                 &bounds.idleTimeoutMs);
    flags.uint64("--stream-timeout-ms", "MS",
                 "drop a progress/response stream that\n"
                 "accepts no bytes within MS (default\n"
                 "10000; 0 waits forever)",
                 &bounds.streamTimeoutMs);
    flags.uint64("--sndbuf", "BYTES",
                 "SO_SNDBUF for accepted sockets\n"
                 "(default 0: OS default; chaos tests\n"
                 "shrink it to stall streams early)",
                 &bounds.sndbufBytes);

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

    // A peer that vanishes makes a write fail with EPIPE, not a kill.
    std::signal(SIGPIPE, SIG_IGN);

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
        CampaignService service(options);
        Server server(service, bounds);
        g_server = &server;
        const auto drain = [](int) { g_server->stop(); };
        std::signal(SIGTERM, drain);
        std::signal(SIGINT, drain);
        std::string error;
        if (!server.listen(socket_path, error))
            die(error);
        std::fprintf(stderr,
                     "dfi-serve: listening on %s (cache budget %llu "
                     "MiB, quota %u/client, queue %u, workers %u%s%s)\n",
                     socket_path.c_str(),
                     static_cast<unsigned long long>(
                         options.cacheBudgetBytes >> 20),
                     options.perClientInFlight, options.queueCapacity,
                     options.workers,
                     options.cacheDir.empty() ? "" : ", disk cache ",
                     options.cacheDir.c_str());
        server.run();
        // Drained: a later signal must not reach a destroyed server.
        std::signal(SIGTERM, SIG_IGN);
        std::signal(SIGINT, SIG_IGN);
        std::fprintf(stderr, "dfi-serve: drained, exiting\n");
        return 0;
    }

    const int ops = (op_ping ? 1 : 0) + (op_stats ? 1 : 0) +
                    (op_shutdown ? 1 : 0);
    if (ops > 1)
        die("--ping, --stats and --shutdown are mutually exclusive");
    request.op = op_ping       ? "ping"
                 : op_stats    ? "stats"
                 : op_shutdown ? "shutdown"
                               : "campaign";
    const ClientResult result = Client{connect_path, retry}.call(
        request,
        [](std::uint64_t done, std::uint64_t total) {
            std::fprintf(stderr, "  %llu/%llu runs\n",
                         static_cast<unsigned long long>(done),
                         static_cast<unsigned long long>(total));
        },
        [](const std::string &why, std::uint64_t delay_ms) {
            std::fprintf(stderr,
                         "dfi-serve: %s; retrying in %llu ms\n",
                         why.c_str(),
                         static_cast<unsigned long long>(delay_ms));
        });
    if (result.exitCode != 0) {
        std::fprintf(stderr, "dfi-serve: %s\n", result.why.c_str());
        return result.exitCode;
    }

    const ServiceResponse &response = result.response;
    if (response.op == "ping")
        std::printf("pong: %s\n", response.extra.asString().c_str());
    else if (response.op == "stats")
        std::fputs(response.extra.dumpPretty().c_str(), stdout);
    else if (response.op == "shutdown")
        std::puts("shutdown requested");
    if (response.op != "campaign")
        return 0;

    // Campaign: artifacts land wherever the client says, exactly as
    // a local dfi-campaign --telemetry-out run would write them.
    if (!telemetry_out.empty()) {
        std::string error;
        if (!writeTelemetryArtifacts(telemetry_out,
                                     response.telemetryRuns,
                                     response.telemetrySummary, error))
            die(error);
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
    return 0;
} catch (const std::bad_alloc &) {
    // An allocation no bound refused is an error exit, not an abort.
    std::fputs("dfi-serve: out of memory\n", stderr);
    return 2;
}
