#include "figure_common.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/config.hh"
#include "inject/campaign.hh"
#include "inject/executor.hh"
#include "prog/benchmark.hh"
#include "uarch/core_config.hh"

namespace dfi::bench
{

namespace
{

std::vector<std::string>
selectedBenchmarks()
{
    const char *raw = std::getenv("DFI_BENCHMARKS");
    if (raw == nullptr || *raw == '\0')
        return prog::benchmarkNames();
    std::vector<std::string> picked;
    std::istringstream is(raw);
    std::string name;
    while (std::getline(is, name, ',')) {
        if (!name.empty())
            picked.push_back(name);
    }
    return picked;
}

std::string
setupToCore(const std::string &setup)
{
    if (setup == "M-x86")
        return "marss-x86";
    if (setup == "G-x86")
        return "gem5-x86";
    return "gem5-arm";
}

} // namespace

inject::FigureReport
runFigure(const std::string &figure_title, const std::string &component)
{
    const std::uint64_t injections = envUint("DFI_INJECTIONS", 150);
    const std::uint64_t seed = envUint("DFI_SEED", 0x5eed);
    const auto jobs =
        static_cast<std::uint32_t>(envUint("DFI_JOBS", 0));
    const bool prune = envUint("DFI_NO_PRUNE", 0) == 0;
    const auto benchmarks = selectedBenchmarks();

    inject::FigureReport report(figure_title, setupNames());
    const inject::Parser parser;

    std::vector<std::pair<std::string, std::string>> cells;
    for (const std::string &bench : benchmarks) {
        for (const std::string &setup : setupNames())
            cells.emplace_back(bench, setup);
    }

    // All cells are one batch: a cell's serial phases (prepare, the
    // golden pass) overlap other cells' runs, and its own runs spread
    // over whatever threads the other cells leave idle.
    std::vector<inject::ClassCounts> counts(cells.size());
    const auto start = std::chrono::steady_clock::now();
    inject::runBatch(
        cells.size(), inject::resolveJobs(jobs),
        [&](std::size_t i) {
            inject::CampaignConfig cfg;
            cfg.component = component;
            cfg.benchmark = cells[i].first;
            cfg.coreName = setupToCore(cells[i].second);
            cfg.numInjections = injections;
            cfg.seed = seed;
            cfg.jobs = jobs; // 0 = hardware concurrency
            cfg.prune = prune;
            counts[i] = inject::InjectionCampaign(cfg).run().classify(
                parser);
        },
        [&](std::size_t i) {
            std::fprintf(stderr, "  [%s] %s/%s done\n",
                         component.c_str(), cells[i].first.c_str(),
                         cells[i].second.c_str());
        });
    for (std::size_t i = 0; i < cells.size(); ++i)
        report.add(cells[i].first, cells[i].second, counts[i]);
    const auto end = std::chrono::steady_clock::now();
    std::fprintf(
        stderr, "campaign wall time: %.1fs (%lu injections/cell)\n",
        std::chrono::duration<double>(end - start).count(),
        static_cast<unsigned long>(injections));
    return report;
}

void
printFigure(const inject::FigureReport &report,
            const std::string &slug)
{
    std::printf("%s\n", report.renderTable().c_str());
    std::printf("%s\n", report.renderBars().c_str());
    std::printf("%s\n", report.renderSummary().c_str());
    writeBenchJson(slug, report.toJson());
}

void
writeBenchJson(const std::string &slug, const json::Value &doc)
{
    const char *env = std::getenv("DFI_TELEMETRY_DIR");
    const std::string dir = env != nullptr ? env : "results";
    if (dir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + slug + ".json";
    std::ofstream out(path, std::ios::binary);
    out << doc.dumpPretty();
    if (!out) {
        std::fprintf(stderr, "warning: cannot write %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(stderr, "json data written to %s\n", path.c_str());
}

} // namespace dfi::bench
