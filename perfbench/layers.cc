#include <algorithm>
#include <memory>

#include "bench.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "inject/checkpoint.hh"
#include "inject/plan.hh"
#include "isa/codegen.hh"
#include "prog/benchmark.hh"
#include "trace.hh"
#include "uarch/core_config.hh"
#include "uarch/ooo_core.hh"

namespace perfbench
{

using dfi::inject::CampaignConfig;
using dfi::inject::InjectionCampaign;
using dfi::inject::PreparedCampaign;

namespace
{

/** Guest memory size InjectionCampaign compiles every image for. */
constexpr std::uint32_t kGuestMemBytes = 0x200000;

dfi::uarch::CoreConfig
coreConfigFor(const CampaignConfig &config)
{
    dfi::uarch::CoreConfig core_cfg =
        dfi::uarch::coreConfigByName(config.coreName);
    dfi::uarch::scaleCaches(core_cfg, config.cacheScale);
    return core_cfg;
}

/** The checkpoint policy InjectionCampaign::prepared() uses. */
dfi::inject::CheckpointPolicy
checkpointPolicyFor(const CampaignConfig &config)
{
    dfi::inject::CheckpointPolicy policy;
    policy.enabled = config.useCheckpoints;
    policy.targetCount = config.checkpointCount;
    policy.budgetBytes = config.checkpointMemBudgetMB * 1024 * 1024;
    return policy;
}

} // namespace

void
probePrepare(const CampaignConfig &config, const std::string &id,
             LayerSamples &samples, Outcome &out)
{
    const dfi::uarch::CoreConfig core_cfg = coreConfigFor(config);

    Clock::time_point started = Clock::now();
    dfi::prog::Benchmark bench;
    {
        trace::Span span("prog.buildBenchmark", id);
        bench = dfi::prog::buildBenchmark(config.benchmark, config.scale);
    }
    const double build_s = secondsSince(started);

    started = Clock::now();
    dfi::isa::Image image;
    {
        trace::Span span("isa.compileModule", id);
        image = dfi::ir::compileModule(bench.module, core_cfg.isa,
                                       kGuestMemBytes);
    }
    const double compile_s = secondsSince(started);

    started = Clock::now();
    std::uint64_t golden_cycles = 0;
    {
        trace::Span span("uarch.goldenTicks", id);
        dfi::uarch::OooCore core(core_cfg, image);
        while (core.tick()) {
        }
        golden_cycles = core.cycle();
    }
    const double golden_s = secondsSince(started);

    // Checkpoint capture, timed directly: the golden loop again with a
    // CheckpointStore observing every tick, as prepared() runs it,
    // summing only captureBase() and the observe() calls that took a
    // snapshot.  A difference of two ~100 ms loops would drown the
    // sub-millisecond capture in host noise.
    double capture_s = 0.0;
    {
        trace::Span span("uarch.goldenTicksWithCapture", id);
        dfi::inject::CheckpointStore store(checkpointPolicyFor(config));
        dfi::uarch::OooCore core(core_cfg, image);
        started = Clock::now();
        store.captureBase(core);
        capture_s += secondsSince(started);
        while (core.tick()) {
            const std::size_t count = store.count();
            const std::uint64_t last = store.cycles().back();
            started = Clock::now();
            store.observe(core);
            const double observe_s = secondsSince(started);
            if (store.count() != count || store.cycles().back() != last)
                capture_s += observe_s;
        }
    }
    trace::derived("checkpoint.capture", id, capture_s);

    InjectionCampaign campaign(config);
    started = Clock::now();
    std::shared_ptr<const PreparedCampaign> prep;
    {
        trace::Span span("campaign.prepared", id);
        prep = campaign.prepared();
    }
    const double prepare_s = secondsSince(started);
    out.check(prep->golden.cycles == golden_cycles,
              "golden tick loop and prepared() disagree on the run "
              "length of " + id);

    // prepared() is build + compile + golden ticks + checkpoint
    // capture; what the lower calls do not account for is its own self
    // time (it reads below zero when host noise exceeds it).
    trace::derived("campaign.prepared.self", id,
                   prepare_s - build_s - compile_s - golden_s - capture_s);

    samples.buildMs.push_back(1e3 * build_s);
    samples.compileMs.push_back(1e3 * compile_s);
    samples.goldenKcps.push_back(
        static_cast<double>(golden_cycles) / golden_s / 1e3);
    samples.captureMs.push_back(1e3 * capture_s);
    samples.prepareMs.push_back(1e3 * prepare_s);

    started = Clock::now();
    dfi::serial::Writer writer;
    {
        trace::Span span("serial.save", id);
        dfi::inject::savePreparedCampaign(*prep, writer);
    }
    samples.saveMs.push_back(1e3 * secondsSince(started));
    const std::string stream = writer.buffer();
    samples.serialKb.push_back(static_cast<double>(stream.size()) / 1024.0);

    started = Clock::now();
    std::string error;
    std::shared_ptr<const PreparedCampaign> loaded;
    {
        trace::Span span("serial.load", id);
        dfi::serial::Reader reader(stream);
        loaded = dfi::inject::loadPreparedCampaign(config, reader, error);
    }
    samples.loadMs.push_back(1e3 * secondsSince(started));
    ++out.attempted;
    if (loaded == nullptr) {
        out.fail("loadPreparedCampaign(" + id + "): " + error);
        return;
    }
    dfi::serial::Writer again;
    dfi::inject::savePreparedCampaign(*loaded, again);
    out.check(again.buffer() == stream,
              "prepared state of " + id + " does not round-trip");
}

void
probePlanAndRestore(const CampaignConfig &config,
                    const PreparedCampaign &prep, const std::string &id,
                    std::uint64_t seed, std::size_t restores,
                    LayerSamples &samples)
{
    const dfi::uarch::CoreConfig core_cfg = coreConfigFor(config);
    dfi::uarch::OooCore probe(core_cfg, prep.image);
    Clock::time_point started = Clock::now();
    {
        trace::Span span("inject.planCampaign", id);
        const dfi::inject::CampaignPlan plan =
            dfi::inject::planCampaign(config, prep.golden, probe);
        samples.planMs.push_back(1e3 * secondsSince(started));
    }

    // Injection cycles are drawn uniformly over the golden run, as
    // the mask generator draws them, whatever the plan pruned.
    dfi::Rng rng(seed);
    for (std::size_t i = 0; i < restores; ++i) {
        const std::uint64_t cycle = 1 + rng.nextBounded(std::max<
                                            std::uint64_t>(prep.golden.cycles,
                                                           1));
        double restore_s = 0.0;
        {
            trace::Span span("checkpoint.restore", id);
            started = Clock::now();
            dfi::uarch::OooCore core =
                prep.checkpoints.sourceFor(cycle);
            core.tick();
            restore_s = secondsSince(started);
        }
        samples.restoreUs.push_back(1e6 * restore_s);
    }
}

void
reportLayerSamples(Outcome &out, const LayerSamples &samples)
{
    out.layer("prog.build_ms", mean(samples.buildMs), "ms");
    out.layer("isa.compile_ms", mean(samples.compileMs), "ms");
    out.layer("uarch.golden_kcycles_per_s", mean(samples.goldenKcps),
              "kcycles/s");
    out.layer("checkpoint.capture_ms", mean(samples.captureMs), "ms");
    out.layer("prepare.ms", mean(samples.prepareMs), "ms");
    out.layer("serial.save_ms", mean(samples.saveMs), "ms");
    out.layer("serial.load_ms", mean(samples.loadMs), "ms");
    out.layer("serial.kb", mean(samples.serialKb), "KiB");
    out.layer("plan.ms", mean(samples.planMs), "ms");
    out.layer("checkpoint.restore_us.p50",
              guardedPercentile(out, "checkpoint.restore_us.p50",
                                samples.restoreUs, 0.50),
              "us");
    out.layer("checkpoint.restore_us.p99",
              guardedPercentile(out, "checkpoint.restore_us.p99",
                                samples.restoreUs, 0.99),
              "us");
}

void
checkGoldenSmoke(const Options &options, Outcome &out)
{
    // Each cell runs with timing capture off, whose artifacts must
    // equal the baselines byte for byte, and on, whose artifacts must
    // equal them once timingFree() has zeroed the timing fields.  The
    // second check keeps timingFree() honest for the workloads that
    // rely on it.
    for (const char *core : {"marss-x86", "gem5-x86", "gem5-arm"}) {
        const std::string base =
            options.goldenDir + "/smoke_" + std::string(core);
        const std::string golden =
            readFile(base + ".jsonl") + readFile(base + ".summary.json");
        for (const bool timing : {false, true}) {
            CampaignConfig config;
            config.coreName = core;
            config.benchmark = "micro";
            config.component = "int_regfile";
            config.numInjections = 24;
            config.seed = 7;
            config.telemetryCapture = true;
            config.telemetryTiming = timing;
            ++out.attempted;
            try {
                InjectionCampaign campaign(config);
                const dfi::inject::CampaignResult result = campaign.run();
                std::string artifacts =
                    result.telemetryRuns + result.telemetrySummary;
                if (timing)
                    artifacts = timingFree(result.telemetryRuns) +
                                timingFree(result.telemetrySummary);
                out.check(artifacts == golden,
                          std::string("smoke cell ") + core +
                              (timing ? " (timing on)" : "") +
                              " is not byte-equal to " + base + ".*");
            } catch (const std::exception &err) {
                out.fail(std::string("smoke cell ") + core + ": " +
                         err.what());
            }
        }
    }
}

} // namespace perfbench
