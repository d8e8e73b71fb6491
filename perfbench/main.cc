/**
 * @file
 * perfbench: times the dfi campaign engine and the dfi-serve daemon
 * on two fixed workloads and prints one JSON result line.  run.py
 * builds it and passes the paths; see README.md.
 *
 *   perfbench --workload campaign-sim|serve-mix
 *             --seed N --seconds S --trace 0|1
 *             --serve-bin PATH --state-dir DIR --golden-dir DIR
 *             --source-digest HEX [--commit SHA]
 *
 * Exit codes: 0 all output checks passed, 1 a check failed (the
 * result line says correct=false), 2 usage or refused build.
 */

#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hh"
#include "trace.hh"

namespace
{

using namespace perfbench;
using dfi::json::quote;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::exit(2);
}

/**
 * Why this binary must not be measured, or empty.  A Debug or
 * sanitizer build is a different program from the one users run.
 */
std::string
refusedBuild()
{
    const std::string type = PERFBENCH_BUILD_TYPE;
    if (type == "Debug" || type.empty())
        return "build type '" + type + "' is not optimized";
    if (PERFBENCH_SANITIZED)
        return "the libraries are built with sanitizers";
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    return "the harness itself is built without optimization";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "the harness itself is built with a sanitizer";
#else
    return {};
#endif
}

std::string
number(double value)
{
    char buffer[64];
    const auto result =
        std::to_chars(buffer, buffer + sizeof buffer, value);
    return std::string(buffer, result.ptr);
}

std::string
metricsObject(const std::vector<Metric> &metrics)
{
    std::string text = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            text += ", ";
        text += quote(metrics[i].name) + ": {\"value\": " +
                number(metrics[i].value) +
                ", \"unit\": " + quote(metrics[i].unit) + "}";
    }
    return text + "}";
}

std::string
countsObject(const std::map<std::string, std::uint64_t> &counts)
{
    std::string text = "{";
    for (const auto &[name, count] : counts) {
        if (text.size() > 1)
            text += ", ";
        text += quote(name) + ": " + std::to_string(count);
    }
    return text + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    std::string commit = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            options.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            options.trace = value == "1";
        else if (flag == "--serve-bin")
            options.serveBin = value;
        else if (flag == "--state-dir")
            options.stateDir = value;
        else if (flag == "--golden-dir")
            options.goldenDir = value;
        else if (flag == "--source-digest")
            options.sourceDigest = value;
        else if (flag == "--commit")
            commit = value;
        else
            usage("unknown flag " + flag);
    }
    if (options.stateDir.empty() || options.goldenDir.empty() ||
        options.serveBin.empty() || options.sourceDigest.empty())
        usage("--serve-bin, --state-dir, --golden-dir and "
              "--source-digest are required");
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");
    if (const std::string why = refusedBuild(); !why.empty())
        usage("refusing to measure: " + why);

    // The host stamp goes with every result.
    const std::string stamp =
        std::string("{\"commit\": ") + quote(commit) +
        ", \"source_digest\": " + quote(options.sourceDigest) +
        ", \"nproc\": " +
        std::to_string(std::thread::hardware_concurrency()) +
        ", \"compiler\": " +
        quote(std::string(PERFBENCH_CXX_ID) + " " +
               PERFBENCH_CXX_VERSION) +
        ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE) +
        ", \"workload\": " + quote(options.workload) +
        ", \"seed\": " + std::to_string(options.seed) +
        ", \"seconds\": " + number(options.seconds) +
        ", \"trace\": " + (options.trace ? "1" : "0") + "}";
    std::fprintf(stderr, "perfbench: %s\n", stamp.c_str());

    makeDirs(options.stateDir);
    trace::enable(options.trace);
    Outcome out;
    try {
        if (options.workload == "campaign-sim")
            runCampaignSim(options, out);
        else if (options.workload == "serve-mix")
            runServeMix(options, out);
        else
            usage("unknown workload '" + options.workload + "'");
    } catch (const std::exception &err) {
        out.fail(std::string("workload aborted: ") + err.what());
    }
    checkRunRecord(out, options);

    std::fprintf(stderr, "perfbench: mix %s\n",
                 countsObject(out.mix).c_str());
    std::fprintf(stderr, "perfbench: mix (not gated) %s\n",
                 countsObject(out.mixInfo).c_str());

    const bool correct = out.failed == 0 && out.failures.empty();
    const std::vector<Metric> &metrics =
        options.trace ? out.layers : out.endToEnd;
    const std::string result =
        std::string("{\"correct\": ") + (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(out.attempted) +
        ", \"failed\": " + std::to_string(out.failed) +
        ", \"metrics\": " + metricsObject(metrics) + "}";

    // Keep every result with its stamp, mix and failures.
    const std::string results_dir = options.stateDir + "/results";
    makeDirs(results_dir);
    std::string failures = "[";
    for (const std::string &failure : out.failures)
        failures += (failures.size() > 1 ? ", " : "") + quote(failure);
    failures += "]";
    writeFile(results_dir + "/" + options.workload + "-seed" +
                  std::to_string(options.seed) + "-trace" +
                  (options.trace ? "1" : "0") + "-" +
                  std::to_string(::getpid()) + ".json",
              "{\"stamp\": " + stamp + ", \"mix\": " +
                  countsObject(out.mix) + ", \"mix_info\": " +
                  countsObject(out.mixInfo) + ", \"failures\": " +
                  failures + ", \"result\": " + result + "}\n");
    if (options.trace) {
        const std::string trace_dir = options.stateDir + "/traces";
        makeDirs(trace_dir);
        trace::write(trace_dir + "/" + options.workload + "-seed" +
                         std::to_string(options.seed) + ".json",
                     options.workload, options.seed);
    }

    std::printf("stamp %s\n", stamp.c_str());
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
