/**
 * @file
 * Parallel-scheduler scaling: campaign wall-clock vs worker count.
 *
 * The paper parallelized its campaigns across ~10 workstations for a
 * month; the execution engine parallelizes across threads with a
 * bit-reproducibility guarantee.  This bench runs one register-file
 * campaign at jobs ∈ {1, 2, 4, 8}, times the injection phase (golden
 * run and checkpointing are shared setup, excluded), verifies that
 * every job count classifies identically, and writes the table to
 * results/bench_parallel_scaling.txt.
 *
 * A JSON twin lands next to the text table (writeBenchJson) with a
 * per-stage breakdown: cumulative restore / simulate microseconds
 * across all workers plus the wall-clock commit overhead the
 * serialized telemetry path adds on top of the simulation work.
 *
 * Environment knobs:
 *   DFI_INJECTIONS   campaign size (default 400)
 *   DFI_OUT          output path (default
 *                    results/bench_parallel_scaling.txt)
 *   DFI_TELEMETRY_DIR  JSON twin directory (default results)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "figure_common.hh"
#include "inject/campaign.hh"
#include "inject/executor.hh"
#include "inject/parser.hh"

using namespace dfi;
using namespace dfi::inject;

int
main()
{
    const std::uint64_t injections = envUint("DFI_INJECTIONS", 400);
    const char *out_env = std::getenv("DFI_OUT");
    const std::string out_path =
        out_env != nullptr && *out_env != '\0'
            ? out_env
            : "results/bench_parallel_scaling.txt";

    CampaignConfig base;
    base.component = "int_regfile";
    base.benchmark = "sha";
    base.coreName = "marss-x86";
    base.numInjections = injections;
    // This bench measures how the execution engine scales, so every
    // planned run must actually simulate: equivalence pruning would
    // classify most register-file sites without executing them.
    base.prune = false;

    TextTable table;
    table.header({"jobs", "wall (s)", "speedup", "runs/s",
                  "identical"});

    Parser parser;
    double serial_seconds = 0.0;
    std::string reference_counts;
    json::Value entries = json::Value::array();
    for (const std::uint32_t jobs : {1u, 2u, 4u, 8u}) {
        CampaignConfig cfg = base;
        cfg.jobs = jobs;
        InjectionCampaign campaign(cfg);
        // Shared setup, excluded from the timing: the golden run and
        // the restore store every run of the campaign restores from.
        campaign.prepared()->refined();

        const auto start = std::chrono::steady_clock::now();
        const CampaignResult result = campaign.run();
        const auto end = std::chrono::steady_clock::now();
        const double seconds =
            std::chrono::duration<double>(end - start).count();
        if (jobs == 1)
            serial_seconds = seconds;

        // The determinism contract: every job count must classify
        // exactly like the serial baseline.
        const ClassCounts counts = result.classify(parser);
        std::string rendered;
        for (std::size_t c = 0; c < kNumOutcomeClasses; ++c) {
            rendered +=
                std::to_string(counts.get(static_cast<OutcomeClass>(c)));
            rendered += ',';
        }
        if (jobs == 1)
            reference_counts = rendered;
        const bool identical = rendered == reference_counts;
        if (!identical)
            warn("jobs=%s diverged from the serial classification",
                 jobs);

        table.row({std::to_string(jobs), formatFixed(seconds, 2),
                   formatFixed(serial_seconds / seconds, 2) + "x",
                   formatFixed(static_cast<double>(injections) /
                                   seconds,
                               1),
                   identical ? "yes" : "NO"});
        std::fprintf(stderr, "  jobs=%u: %.2fs\n", jobs, seconds);

        // Stage breakdown.  restore/simulate are cumulative across
        // all workers; commit is the wall-clock overhead the
        // serialized telemetry path adds on top of the per-worker
        // simulation share.
        const double wall_us = seconds * 1e6;
        const double worker_us =
            static_cast<double>(result.totalWallMicros) / jobs;
        json::Value stages = json::Value::object();
        stages.set("restore_us",
                   json::Value::unsignedInt(result.totalRestoreMicros));
        stages.set("simulate_us",
                   json::Value::unsignedInt(
                       result.totalWallMicros -
                       std::min(result.totalRestoreMicros,
                                result.totalWallMicros)));
        stages.set("commit_us",
                   json::Value::number(
                       std::max(0.0, wall_us - worker_us)));
        json::Value entry = json::Value::object();
        entry.set("jobs", json::Value::unsignedInt(jobs));
        entry.set("wall_us", json::Value::number(wall_us));
        entry.set("speedup",
                  json::Value::number(serial_seconds / seconds));
        entry.set("runs_per_s",
                  json::Value::number(
                      static_cast<double>(injections) / seconds));
        entry.set("identical", json::Value::boolean(identical));
        entry.set("stages", std::move(stages));
        entries.push(std::move(entry));
    }

    std::string report =
        "Parallel campaign scaling (" + base.component + " / " +
        base.benchmark + " / " + base.coreName + ", " +
        std::to_string(injections) + " injections, " +
        std::to_string(resolveJobs(0)) + " hardware threads)\n\n" +
        table.render();

    std::printf("%s", report.c_str());
    std::ofstream out(out_path);
    if (out) {
        out << report;
        std::fprintf(stderr, "written to %s\n", out_path.c_str());
    } else {
        warn("cannot write %s; run from the repository root",
             out_path);
    }

    json::Value doc = json::Value::object();
    doc.set("kind", json::Value::string("dfi-bench"));
    doc.set("bench", json::Value::string("parallel_scaling"));
    doc.set("component", json::Value::string(base.component));
    doc.set("benchmark", json::Value::string(base.benchmark));
    doc.set("core", json::Value::string(base.coreName));
    doc.set("injections", json::Value::unsignedInt(injections));
    doc.set("hardware_threads",
            json::Value::unsignedInt(resolveJobs(0)));
    doc.set("entries", std::move(entries));
    dfi::bench::writeBenchJson("bench_parallel_scaling", doc);
    return 0;
}
