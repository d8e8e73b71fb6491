/**
 * @file
 * dfi-campaign: command-line front end for the injection framework.
 *
 * Runs a full campaign (golden run, mask generation, injections,
 * classification) from flags, mirroring how the paper's tools were
 * driven in batch across workstations.  Campaigns are shardable
 * (`--shard I/N` + dfi-merge), resumable (`--resume`), and masks can
 * be exported and replayed, so long campaigns split across machines
 * and survive interruptions without losing determinism.
 *
 * Examples:
 *   dfi-campaign --core marss-x86 --benchmark fft --component l1d \
 *                --injections 500
 *   dfi-campaign --core gem5-arm --benchmark sha --component lsq \
 *                --confidence 0.99 --margin 0.05
 *   dfi-campaign --list
 *   dfi-campaign --core gem5-x86 --benchmark qsort --component l1i \
 *                --injections 400 --shard 0/2 --telemetry-out s0
 *   dfi-campaign --core gem5-x86 --benchmark qsort --component l1i \
 *                --injections 400 --resume run.jsonl \
 *                --telemetry-out run
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/parse_num.hh"
#include "common/version.hh"
#include "common/stats.hh"
#include "inject/campaign.hh"
#include "inject/executor.hh"
#include "inject/mask_gen.hh"
#include "inject/parser.hh"
#include "inject/target.hh"
#include "prog/benchmark.hh"
#include "uarch/core_config.hh"

using namespace dfi;
using namespace dfi::inject;

namespace
{

[[noreturn]] void
die(const std::string &message)
{
    std::fprintf(stderr, "dfi-campaign: %s\n", message.c_str());
    std::exit(2);
}

void
listTargets()
{
    std::puts("cores:");
    for (const auto &name : uarch::coreConfigNames())
        std::printf("  %s\n", name.c_str());
    std::puts("benchmarks:");
    for (const auto &name : prog::benchmarkNames())
        std::printf("  %s\n", name.c_str());
    std::puts("  micro (test workload)");
    std::puts("components:");
    for (const auto &name : componentNames())
        std::printf("  %s\n", name.c_str());
}

/** Decode `I/N` (e.g. `0/4`) into a ShardSpec. */
bool
decodeShard(const std::string &text, ShardSpec &out,
            std::string &error)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size()) {
        error = "expected I/N (e.g. 0/4)";
        return false;
    }
    std::uint64_t index = 0, count = 0;
    if (!dfi::parseUnsigned(text.substr(0, slash), index,
                            std::numeric_limits<std::uint32_t>::max()) ||
        !dfi::parseUnsigned(text.substr(slash + 1), count,
                            std::numeric_limits<std::uint32_t>::max())) {
        error = "expected I/N (e.g. 0/4)";
        return false;
    }
    out.index = static_cast<std::uint32_t>(index);
    out.count = static_cast<std::uint32_t>(count);
    return true;
}

} // namespace

int
main(int argc, char **argv)
try {
    CampaignConfig cfg;
    cfg.jobs = 0; // batch front end: all hardware threads by default
    ParserConfig parser_cfg;
    std::string save_masks;
    bool verbose = false;
    bool list = false;
    bool dry_run = false;

    cli::FlagSet flags("dfi-campaign", "[options]");
    bindCampaignFlags(flags, cfg);

    flags.section("execution");
    flags.flag("--dry-run",
               "resolve and print the plan (runs, pruned\n"
               "counts, estimated simulated cycles), then\n"
               "exit without simulating",
               &dry_run);
    flags.custom("--shard", "I/N",
                 "execute shard I of N (runs with\n"
                 "runId mod N == I); merge the shards'\n"
                 "telemetry with dfi-merge",
                 [&cfg](const std::string &text, std::string &error) {
                     return decodeShard(text, cfg.shard, error);
                 });
    flags.text("--resume", "FILE",
               "replay the completed runs of a partial\n"
               "telemetry stream (a torn final line is\n"
               "dropped) and execute only the rest;\n"
               "requires --telemetry-out",
               &cfg.resumeFrom);

    flags.section("output");
    flags.text("--telemetry-out", "BASE",
               "write BASE.jsonl (per-run records)\n"
               "and BASE.summary.json; byte-identical\n"
               "for every --jobs value",
               &cfg.telemetryOut);
    flags.text("--save-masks", "FILE",
               "write the generated masks repository", &save_masks);
    flags.flag("--crash-as-assert",
               "regroup simulator crashes under Assert",
               &parser_cfg.simulatorCrashAsAssert);
    flags.flag("--no-due-split", "do not annotate true/false DUE",
               [&parser_cfg] { parser_cfg.splitDue = false; });
    flags.flag("--verbose", "per-run progress", &verbose);
    flags.flag("--list", "list cores, benchmarks, components",
               &list);

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
    if (list) {
        listTargets();
        return 0;
    }

    // One structured validation pass; every defect is reported, not
    // just the first.
    const std::vector<ConfigError> config_errors = cfg.validate();
    if (!config_errors.empty()) {
        for (const ConfigError &err : config_errors)
            std::fprintf(stderr, "dfi-campaign: config: %s: %s\n",
                         err.field.c_str(), err.message.c_str());
        return 2;
    }

    try {
        InjectionCampaign campaign(cfg);
        const auto &golden = campaign.golden();
        std::fprintf(stderr,
                     "golden: %llu cycles, %llu instructions, %zu "
                     "output bytes\n",
                     static_cast<unsigned long long>(golden.cycles),
                     static_cast<unsigned long long>(
                         golden.instructions),
                     golden.output.size());
        if (dry_run) {
            const InjectionCampaign::PlanSummary summary =
                campaign.planSummary();
            std::printf("plan: %llu runs (%llu masks)\n",
                        static_cast<unsigned long long>(
                            summary.totalRuns),
                        static_cast<unsigned long long>(
                            summary.maskCount));
            std::printf("  simulated:     %llu\n",
                        static_cast<unsigned long long>(
                            summary.stats.simulated));
            std::printf("  pruned static: %llu\n",
                        static_cast<unsigned long long>(
                            summary.stats.prunedStatic));
            std::printf("  pruned equiv:  %llu\n",
                        static_cast<unsigned long long>(
                            summary.stats.prunedEquiv));
            if (cfg.shard.count > 1)
                std::printf("  this shard (%u/%u) executes: %llu\n",
                            cfg.shard.index, cfg.shard.count,
                            static_cast<unsigned long long>(
                                summary.executed));
            std::printf("  estimated simulated cycles: %llu\n",
                        static_cast<unsigned long long>(
                            summary.estimatedSimulatedCycles));
            return 0;
        }
        if (cfg.shard.count > 1)
            std::fprintf(stderr, "executing shard %u/%u\n",
                         cfg.shard.index, cfg.shard.count);
        const std::uint32_t threads =
            std::min(resolveJobs(cfg.jobs), poolWidth());
        std::fprintf(stderr, "executing on %u worker thread%s\n",
                     threads, threads == 1 ? "" : "s");

        InjectionCampaign::Progress progress;
        if (verbose) {
            progress = [](std::uint64_t done, std::uint64_t total) {
                if (done % 50 == 0 || done == total) {
                    std::fprintf(stderr, "  %llu/%llu runs\n",
                                 static_cast<unsigned long long>(done),
                                 static_cast<unsigned long long>(
                                     total));
                }
            };
        }
        const CampaignResult result = campaign.run(progress);

        if (!save_masks.empty()) {
            saveMasks(save_masks, result.masks);
            std::fprintf(stderr, "masks written to %s\n",
                         save_masks.c_str());
        }
        if (!cfg.telemetryOut.empty()) {
            std::fprintf(stderr,
                         "telemetry written to %s.jsonl and "
                         "%s.summary.json\n",
                         cfg.telemetryOut.c_str(),
                         cfg.telemetryOut.c_str());
        }

        Parser parser(parser_cfg);
        const ClassCounts counts = result.classify(parser);

        TextTable table;
        table.header({"class", "runs", "percent"});
        for (std::size_t c = 0; c < kNumOutcomeClasses; ++c) {
            const auto cls = static_cast<OutcomeClass>(c);
            table.row({outcomeClassName(cls),
                       std::to_string(counts.get(cls)),
                       formatFixed(counts.percent(cls), 2) + "%"});
        }
        std::printf("campaign: %s / %s / %s / %s\n", cfg.coreName.c_str(),
                    cfg.benchmark.c_str(), cfg.component.c_str(),
                    faultTypeName(cfg.faultType).c_str());
        std::printf("%s", table.render().c_str());
        std::printf("vulnerability (non-masked): %.2f%%\n",
                    counts.vulnerability());
        std::printf("campaign cycles: %llu simulated (%.1f%% of the "
                    "unoptimized equivalent)\n",
                    static_cast<unsigned long long>(
                        result.simulatedFaultyCycles),
                    result.fullRunEquivalentCycles > 0
                        ? 100.0 *
                              static_cast<double>(
                                  result.simulatedFaultyCycles) /
                              static_cast<double>(
                                  result.fullRunEquivalentCycles)
                        : 0.0);
        if (result.pruneStats.prunedStatic +
                result.pruneStats.prunedEquiv >
            0) {
            std::printf("pruning: %llu simulated, %llu pruned static, "
                        "%llu pruned equivalent\n",
                        static_cast<unsigned long long>(
                            result.pruneStats.simulated),
                        static_cast<unsigned long long>(
                            result.pruneStats.prunedStatic),
                        static_cast<unsigned long long>(
                            result.pruneStats.prunedEquiv));
        }
        return 0;
    } catch (const dfi::FatalError &err) {
        die(err.what());
    }
} catch (const std::bad_alloc &) {
    // An allocation no bound refused is an error exit, not an abort.
    std::fputs("dfi-campaign: out of memory\n", stderr);
    return 2;
}
