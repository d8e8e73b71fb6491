/**
 * @file
 * dfi-merge: recombine shard telemetry streams into the unsharded
 * campaign artifacts.
 *
 * The paper parallelized its campaigns across ~10 workstations and
 * pooled the per-machine logs into one repository; dfi-merge is that
 * pooling step for `dfi-campaign --shard I/N` telemetry.  Given the
 * N shard run streams it writes `<out>.jsonl` and
 * `<out>.summary.json` byte-identical to what the unsharded campaign
 * would have written (verify with `dfi-diff --exact`), refusing when
 * the shards disagree on schema/config/golden/run count, overlap, or
 * leave runs uncovered.  See inject/merge.hh for the invariants.
 *
 * Exit codes: 0 = merged, 2 = refused (incompatible or incomplete
 * shard set, unreadable input, usage).
 *
 * Example:
 *   dfi-campaign ... --shard 0/2 --telemetry-out s0   # machine A
 *   dfi-campaign ... --shard 1/2 --telemetry-out s1   # machine B
 *   dfi-merge --out run s0.jsonl s1.jsonl
 *   dfi-diff --exact results/golden/smoke_gem5-x86.jsonl run.jsonl
 */

#include <cstdio>
#include <new>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/version.hh"
#include "inject/merge.hh"
#include "inject/telemetry.hh"

using namespace dfi::inject;
namespace cli = dfi::cli;

int
main(int argc, char **argv)
try {
    std::string out_base;
    std::vector<std::string> paths;

    cli::FlagSet flags("dfi-merge", "--out BASE SHARD.jsonl...");
    flags.text("--out", "BASE",
               "write the merged BASE.jsonl and\n"
               "BASE.summary.json",
               &out_base);
    flags.positionals("SHARD.jsonl...",
                      "the shard run streams to merge (any order)",
                      &paths);

    std::string parse_error;
    switch (flags.parse(argc, argv, parse_error)) {
      case cli::ParseResult::Help:
        std::fputs(flags.usage().c_str(), stdout);
        std::puts("\nexit codes: 0 merged, 2 refused");
        return 0;
      case cli::ParseResult::Version:
        std::puts(dfi::versionString().c_str());
        return 0;
      case cli::ParseResult::Error:
        std::fprintf(stderr, "dfi-merge: %s\n", parse_error.c_str());
        return 2;
      case cli::ParseResult::Ok:
        break;
    }
    if (out_base.empty()) {
        std::fprintf(stderr,
                     "dfi-merge: --out BASE is required (try "
                     "--help)\n");
        return 2;
    }
    if (paths.empty()) {
        std::fprintf(stderr,
                     "dfi-merge: no shard streams given (try "
                     "--help)\n");
        return 2;
    }

    MergeResult merged;
    std::string error;
    if (!mergeTelemetryStreams(paths, merged, error) ||
        !writeTelemetryArtifacts(out_base, merged.runsJsonl,
                                 merged.summaryJson, error)) {
        std::fprintf(stderr, "dfi-merge: %s\n", error.c_str());
        return 2;
    }
    for (const std::string &warning : merged.warnings)
        std::fprintf(stderr, "dfi-merge: warning: %s\n",
                     warning.c_str());
    std::printf("merged %llu runs from %zu shard stream%s into "
                "%s.jsonl and %s.summary.json\n",
                static_cast<unsigned long long>(merged.runs),
                paths.size(), paths.size() == 1 ? "" : "s",
                out_base.c_str(), out_base.c_str());
    return 0;
} catch (const std::bad_alloc &) {
    // An allocation no bound refused is an error exit, not an abort.
    std::fputs("dfi-merge: out of memory\n", stderr);
    return 2;
}
