/**
 * @file
 * campaign-sim, the in-process batch workload: fixed cells of the
 * paper's evaluation matrix (core model x program x structure),
 * prepared once and then run unpruned as whole campaigns through
 * InjectionCampaign::run() on two executor threads.
 */

#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <set>
#include <unordered_set>

#include "bench.hh"
#include "inject/telemetry.hh"
#include "trace.hh"

namespace perfbench
{

using dfi::inject::CampaignConfig;
using dfi::inject::CampaignResult;
using dfi::inject::InjectionCampaign;
using dfi::inject::PreparedCampaign;

namespace
{

/**
 * Host seconds one round takes on the reference host (README):
 * --seconds buys round(seconds / (2 x this)) sweep/repeat pairs.
 */
constexpr double kNominalRoundSeconds = 3.5;

/** Executor threads per campaign. */
constexpr std::uint32_t kJobs = 2;

/** Checkpoint restores the traced run samples, over all cells. */
constexpr std::size_t kRestoreSamples = 1200;

/**
 * One paper-matrix cell and how it is asked for: `requests` campaigns
 * of `injections` runs each per round, each at its own seed.
 */
struct Cell
{
    const char *core;
    const char *program;
    const char *component;
    std::uint64_t injections;
    std::uint32_t requests;
};

/**
 * All three core models and all five structures of the paper's
 * Figs. 2-6.  Neither the list nor the fault masks depend on the seed
 * (kWorkSeed), so the work does not swing with it; the seed only
 * orders the work.  Requests are sized so each takes about the same
 * time whatever its cell, which keeps the latency distribution one
 * mode.
 */
const std::vector<Cell> kCells = {
    {"marss-x86", "sha", "lsq", 10, 9},
    {"marss-x86", "sha", "int_regfile", 8, 8},
    {"gem5-x86", "sha", "l1i", 4, 6},
    {"gem5-arm", "sha", "l1d", 10, 7},
    {"gem5-arm", "sha", "l2", 10, 7},
};

using Preps = std::vector<std::shared_ptr<const PreparedCampaign>>;

std::string
cellId(const Cell &cell)
{
    return std::string(cell.core) + "/" + cell.program + "/" +
           cell.component;
}

/** Every planned run simulates: no pruning, on kJobs threads. */
CampaignConfig
cellConfig(const Cell &cell, std::uint64_t seed, bool timing)
{
    CampaignConfig config;
    config.coreName = cell.core;
    config.benchmark = cell.program;
    config.component = cell.component;
    config.numInjections = cell.injections;
    config.seed = seed >> 16;
    config.jobs = kJobs;
    config.prune = false;
    config.telemetryCapture = true;
    // Per-run wall times live only in the volatile fields, which
    // timingFree() zeroes.
    config.telemetryTiming = timing;
    return config;
}

/**
 * One set-up: what dfi-campaign pays per campaign before its first
 * faulty run (compile, golden pass, checkpoint capture), for every
 * cell.  Appends the summed seconds to `sums`; returns the prepared
 * states, or nothing when a cell failed.
 */
Preps
setUp(const std::vector<CampaignConfig> &configs, std::vector<double> &sums,
      Outcome &out)
{
    Preps preps;
    double sum = 0.0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const std::string id = cellId(kCells[i]);
        ++out.attempted;
        try {
            InjectionCampaign campaign(configs[i]);
            trace::Span span("campaign.prepared", id);
            const Clock::time_point started = Clock::now();
            preps.push_back(campaign.prepared());
            sum += secondsSince(started);
        } catch (const std::exception &err) {
            out.fail("prepare " + id + ": " + err.what());
            return {};
        }
    }
    sums.push_back(sum);
    std::fprintf(stderr, "  set-up %zu: %.3f s\n", sums.size(), sum);
    return preps;
}

/** Append the wall time of every simulated run of a campaign, in ms. */
void
appendRunLatencies(const CampaignResult &result, std::vector<double> &out)
{
    dfi::inject::TelemetryFile file;
    std::string error;
    if (!dfi::inject::parseTelemetry(result.telemetryRuns, file, error))
        return;
    const std::unordered_set<std::uint64_t> executed(
        result.recordRunIds.begin(), result.recordRunIds.end());
    for (const dfi::inject::TelemetryRecord &record : file.records) {
        if (executed.count(record.runId) != 0)
            out.push_back(record.wallMicros / 1e3);
    }
}

/** What one timed pass over the cells measured. */
struct Pass
{
    /** Request latencies of the sweep and of the repeat rounds. */
    std::vector<double> sweepMs;
    std::vector<double> repeatMs;
    std::vector<double> runMs;    //!< simulated runs, with timing on
    std::uint64_t sweepRequests = 0;
    std::uint64_t repeatRequests = 0;
    std::uint64_t earlyStops = 0;
    std::uint64_t executed = 0;
    std::uint64_t planned = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t taskMicros = 0;
    double runSeconds = 0.0;
    std::uint64_t telemetryBytes = 0;
    std::uint64_t cellRuns = 0;
    std::uint64_t sameProgram = 0;
    std::uint64_t repeats = 0;
    std::set<std::string> programsSeen;

    /** Planned runs answered per second of run() over the whole pass. */
    double runsPerS() const { return planned / runSeconds; }
};

/** What one request of a round produced, for the checks. */
struct RequestRun
{
    std::uint64_t planned = 0;
    std::uint64_t simulated = 0;
    std::uint64_t simCycles = 0;
    std::string artifacts;
};

/** One request of a round: a cell and the request's number in it. */
struct Slot
{
    std::size_t cell;
    std::uint32_t request;
};

/**
 * The requests of one round, every request of every cell once.  The
 * cells come in an order drawn from `seed`, each with its requests
 * together, so a cell's prepared state stays in the host's caches while
 * its requests run.
 */
std::vector<Slot>
roundOrder(std::uint64_t seed)
{
    std::vector<Slot> order;
    for (std::size_t i : shuffledOrder(kCells.size(), seed)) {
        for (std::uint32_t r = 0; r < kCells[i].requests; ++r)
            order.push_back(Slot{i, r});
    }
    return order;
}

/**
 * Run round pair number `pair` into `pass`, calling `after_round`
 * after each round.  The pair does work unit `unit`: one request per
 * (cell, request number), each at its own fault-mask seed drawn from
 * kWorkSeed and the unit, so the work never depends on the run seed.
 * The run seed gives the order of the requests.  The first round of a
 * pair sweeps the unit; the second resubmits every request of the
 * first exactly, in the same order, so its counts and artifacts must
 * equal the first's.
 */
void
timedPair(Pass &pass, const Preps &preps, std::uint64_t seed,
          std::uint32_t pair, std::size_t unit, bool timing,
          const std::function<void()> &after_round, Outcome &out)
{
    const std::uint64_t unit_seed = mixSeed(kWorkSeed, unit);
    const std::vector<Slot> order = roundOrder(mixSeed(seed, pair));
    std::vector<RequestRun> sweep_runs;
    for (std::uint32_t round = 2 * pair; round < 2 * pair + 2; ++round) {
        const bool repeat = round % 2 == 1;
        std::vector<RequestRun> runs;
        std::vector<double> &latencies =
            repeat ? pass.repeatMs : pass.sweepMs;
        double round_seconds = 0.0;
        std::uint64_t round_planned = 0;
        for (const auto [i, r] : order) {
            const Cell &cell = kCells[i];
            const std::string program =
                std::string(cell.core) + "/" + cell.program;
            const std::string id = cellId(cell) + "#" + std::to_string(r) +
                                   "@" + std::to_string(unit);
            ++pass.cellRuns;
            pass.sameProgram += pass.programsSeen.count(program);
            pass.programsSeen.insert(program);
            pass.repeats += repeat ? 1 : 0;

            // Prepared state depends on no fault-selection field, so one
            // prepared instance per cell serves every seed.
            const CampaignConfig config =
                cellConfig(cell, mixSeed(unit_seed, 1000 * i + r), timing);
            ++out.attempted;
            runs.emplace_back();
            CampaignResult result;
            double seconds = 0.0;
            try {
                InjectionCampaign campaign(config);
                campaign.adoptPrepared(preps[i]);
                trace::Span span("campaign.run", id);
                const Clock::time_point started = Clock::now();
                result = campaign.run();
                seconds = secondsSince(started);
            } catch (const std::exception &err) {
                out.fail("campaign " + id + ": " + err.what());
                continue;
            }
            round_seconds += seconds;
            pass.runSeconds += seconds;
            RequestRun &run = runs.back();
            run.planned = result.records.size() + result.pruned.size();
            run.simulated = result.records.size();
            run.simCycles = result.simulatedFaultyCycles;
            run.artifacts = timingFree(result.telemetryRuns) +
                            timingFree(result.telemetrySummary);
            round_planned += run.planned;
            (repeat ? pass.repeatRequests : pass.sweepRequests) += run.planned;
            pass.taskMicros += result.totalWallMicros;
            pass.telemetryBytes += result.telemetryRuns.size() +
                                   result.telemetrySummary.size();
            for (const dfi::syskit::RunRecord &record : result.records)
                pass.earlyStops += record.earlyStopMasked ? 1 : 0;
            pass.executed += run.simulated;
            pass.planned += run.planned;
            pass.simCycles += run.simCycles;
            if (timing)
                appendRunLatencies(result, pass.runMs);
            latencies.push_back(1e3 * seconds);

            if (repeat) {
                const RequestRun &original = sweep_runs[runs.size() - 1];
                out.check(run.planned == original.planned &&
                              run.simulated == original.simulated &&
                              run.simCycles == original.simCycles,
                          "mix guard: repeat of " + id +
                              " changed its counts");
                out.check(run.artifacts == original.artifacts,
                          "repeat of " + id + " changed its artifacts");
            } else {
                // The same request run untraced earlier in this process
                // (in a traced run) must have made the same bytes.
                const std::string digest = digestOf(run.artifacts);
                const auto [it, fresh] = out.artifacts.emplace(id, digest);
                out.check(fresh || it->second == digest,
                          "traced pass changed the artifacts of " + id);
            }
        }
        if (!repeat)
            sweep_runs = std::move(runs);
        std::fprintf(stderr, "  round %u: %llu runs in %.3f s\n",
                     round + 1,
                     static_cast<unsigned long long>(round_planned),
                     round_seconds);
        after_round();
    }
}

/**
 * The mix guard's counts for a pass; a second pass in the same
 * process (the traced one) must reproduce them.
 */
void
recordMix(Outcome &out, const Pass &pass, std::uint32_t pairs)
{
    const std::map<std::string, std::uint64_t> counts = {
        {"requests.sweep", pass.sweepRequests},
        {"requests.repeat", pass.repeatRequests},
        {"runs.planned", pass.planned},
        {"runs.simulated", pass.executed},
        {"sim_cycles", pass.simCycles},
        {"pairs", pairs},
        {"prepared_cold", 0},
        {"rejections", 0},
    };
    for (const auto &[name, count] : counts) {
        const auto [it, fresh] = out.mix.emplace(name, count);
        out.check(fresh || it->second == count,
                  "mix guard: " + name + " differs between passes");
    }
}

} // namespace

void
runCampaignSim(const Options &options, Outcome &out)
{
    checkGoldenSmoke(options, out);

    std::vector<CampaignConfig> configs;
    for (std::size_t i = 0; i < kCells.size(); ++i)
        configs.push_back(
            cellConfig(kCells[i], mixSeed(options.seed, 1000 * i), false));

    // The first set-up's prepared states serve the timed rounds.  One
    // more set-up follows every round, so setup_s (their median)
    // samples the same host phases as the rounds rather than one window
    // at the start: back-to-back set-ups switch between two speeds,
    // 1.7x apart, in phases of a few seconds (README).
    std::vector<double> setup_sums;
    const Preps preps = setUp(configs, setup_sums, out);
    if (preps.empty())
        return;
    const auto set_up_again = [&] { setUp(configs, setup_sums, out); };

    const auto pairs = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::lround(
               options.seconds / (2 * kNominalRoundSeconds))));

    // The traced run reads per-run wall times for run.ms.* as well.
    // It also runs every pair untraced just before the traced one, so
    // the tracing overhead compares like with like, close in time.
    const bool timing = options.trace;
    // The run seed orders the work units over the pairs.
    const std::vector<std::size_t> units =
        shuffledOrder(pairs, mixSeed(options.seed, 3));
    Pass untraced, pass;
    for (std::uint32_t pair = 0; pair < pairs; ++pair) {
        if (options.trace) {
            trace::enable(false);
            timedPair(untraced, preps, options.seed, pair, units[pair],
                      timing, set_up_again, out);
            trace::enable(true);
        }
        timedPair(pass, preps, options.seed, pair, units[pair], timing,
                  set_up_again, out);
    }
    if (options.trace)
        recordMix(out, untraced, pairs);
    recordMix(out, pass, pairs);

    if (!options.trace) {
        out.e2e("setup_s", median(setup_sums), "s");
        out.e2e("runs_per_s", pass.runsPerS(), "runs/s");
        reportLatencies(out, pass.sweepMs, pass.repeatMs);
        return;
    }

    LayerSamples samples;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const std::string id = cellId(kCells[i]);
        try {
            probePrepare(configs[i], id, samples, out);
            probePlanAndRestore(configs[i], *preps[i], id,
                                mixSeed(options.seed, 1000 + i),
                                kRestoreSamples / configs.size(),
                                samples);
        } catch (const std::exception &err) {
            out.fail("layer probe " + id + ": " + err.what());
        }
    }
    out.layer("peak_rss_mb", peakRssMiB(), "MiB");
    reportRepeatTail(out, pass.repeatMs);
    reportLayerSamples(out, samples);

    // Both passes recorded per-run wall times: at least 1,272 simulated
    // runs (one pair), enough for the guarded p99.
    std::vector<double> run_ms = untraced.runMs;
    run_ms.insert(run_ms.end(), pass.runMs.begin(), pass.runMs.end());

    const double executed = static_cast<double>(pass.executed);
    out.layer("uarch.faulty_kcycles_per_s",
              pass.simCycles / (pass.taskMicros / 1e6) / 1e3, "kcycles/s");
    out.layer("uarch.sim_cycles", static_cast<double>(pass.simCycles),
              "count");
    out.layer("prune.simulated_ratio", executed / pass.planned, "ratio");
    out.layer("run.ms.p50",
              guardedPercentile(out, "run.ms.p50", run_ms, 0.5), "ms");
    out.layer("run.ms.p99",
              guardedPercentile(out, "run.ms.p99", run_ms, 0.99), "ms");
    out.layer("run.early_stop_ratio", pass.earlyStops / executed,
              "ratio");
    out.layer("executor.busy_ratio",
              pass.taskMicros / 1e6 / (pass.runSeconds * kJobs), "ratio");
    out.layer("telemetry.kb_per_run",
              pass.telemetryBytes / 1024.0 / pass.planned, "KiB");
    for (const char *tier :
         {"none", "memory", "flight", "disk", "response"}) {
        for (const char *cls : {"sweep", "repeat"}) {
            out.layer(std::string("service.source.") + tier + "." + cls,
                      0.0, "count");
        }
    }
    out.layer("service.prep_reuse_ratio", 0.0, "ratio");
    out.layer("serve.first_progress_ms.p50", 0.0, "ms");
    out.layer("transport.ping_ms.p50", 0.0, "ms");
    out.layer("transport.response_kb", 0.0, "KiB");
    out.layer("share.same_program",
              static_cast<double>(pass.sameProgram) / pass.cellRuns,
              "ratio");
    out.layer("share.repeat",
              static_cast<double>(pass.repeats) / pass.cellRuns, "ratio");
    out.layer("trace.runs_per_s", pass.runsPerS(), "runs/s");
    out.layer("trace.overhead_pct",
              100.0 * (1.0 - pass.runsPerS() / untraced.runsPerS()),
              "%");
}

} // namespace perfbench
