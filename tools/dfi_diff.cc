/**
 * @file
 * dfi-diff: differential comparison of campaign telemetry artifacts.
 *
 * The paper's methodology lives or dies on comparing logged runs
 * across injectors and environments; dfi-diff is the command-line
 * face of that comparison for the machine-readable artifacts
 * produced by `dfi-campaign --telemetry-out` (see
 * inject/telemetry.hh).
 *
 * Modes:
 *   --exact          field-by-field identity, ignoring the declared
 *                    volatile fields (wall_us, jobs).  Use for
 *                    same-seed reproducibility checks — this is what
 *                    CI runs against results/golden/.
 *   --tolerance P    per-class outcome percentages must agree within
 *                    P percentage points.  Use for cross-environment
 *                    or cross-seed statistical comparison.
 *
 * Exit codes: 0 = equal, 1 = drift, 2 = malformed input or usage.
 *
 * Examples:
 *   dfi-diff --exact results/golden/smoke_marss-x86.jsonl run.jsonl
 *   dfi-diff --tolerance 2.5 a.summary.json b.summary.json
 */

#include <cstdio>
#include <new>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/parse_num.hh"
#include "common/version.hh"
#include "inject/telemetry.hh"

using namespace dfi::inject;
namespace cli = dfi::cli;

int
main(int argc, char **argv)
try {
    DiffOptions options;
    std::vector<std::string> paths;

    cli::FlagSet flags("dfi-diff",
                       "[--exact | --tolerance PCT] FILE_A FILE_B");
    flags.flag("--exact",
               "require identity of every non-volatile\n"
               "field (default)",
               [&options] { options.exact = true; });
    flags.custom("--tolerance", "PCT",
                 "require per-class outcome percentages to\n"
                 "agree within PCT percentage points",
                 [&options](const std::string &text,
                            std::string &error) {
                     double tolerance = 0.0;
                     if (!dfi::parseDouble(text, tolerance)) {
                         error = "expected a number";
                         return false;
                     }
                     options.exact = false;
                     options.tolerancePercent = tolerance;
                     return true;
                 });
    flags.positionals("FILE_A FILE_B",
                      "two telemetry artifacts of the same kind\n"
                      "(JSONL run streams or summary JSON documents)",
                      &paths);

    std::string parse_error;
    switch (flags.parse(argc, argv, parse_error)) {
      case cli::ParseResult::Help:
        std::fputs(flags.usage().c_str(), stdout);
        std::puts("\nexit codes: 0 equal, 1 drift, 2 malformed "
                  "input / usage");
        return 0;
      case cli::ParseResult::Version:
        std::puts(dfi::versionString().c_str());
        return 0;
      case cli::ParseResult::Error:
        std::fprintf(stderr, "dfi-diff: %s\n", parse_error.c_str());
        return 2;
      case cli::ParseResult::Ok:
        break;
    }
    if (paths.size() != 2) {
        std::fprintf(stderr,
                     "dfi-diff: expected exactly two files (try "
                     "--help)\n");
        return 2;
    }

    std::string report;
    const DiffOutcome outcome =
        diffTelemetryFiles(paths[0], paths[1], options, report);
    if (!report.empty())
        std::fputs(report.c_str(), stderr);
    switch (outcome) {
      case DiffOutcome::Equal:
        std::printf("equal: %s %s\n", paths[0].c_str(),
                    paths[1].c_str());
        break;
      case DiffOutcome::Drift:
        std::fprintf(stderr, "drift: %s vs %s\n", paths[0].c_str(),
                     paths[1].c_str());
        break;
      case DiffOutcome::Malformed:
        break;
    }
    return static_cast<int>(outcome);
} catch (const std::bad_alloc &) {
    // An allocation no bound refused is an error exit, not an abort.
    std::fputs("dfi-diff: out of memory\n", stderr);
    return 2;
}
