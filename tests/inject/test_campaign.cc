/**
 * @file
 * Integration tests for the Injection Campaign Controller: golden
 * runs, checkpointed faulty runs, early-stop rules, timeout bounds,
 * determinism, and the MaFIN/GeFIN facades.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "gemsim/gefin.hh"
#include "inject/campaign.hh"
#include "inject/report.hh"
#include "marssim/mafin.hh"

namespace
{

using namespace dfi;
using namespace dfi::inject;

CampaignConfig
microConfig(const std::string &core, const std::string &component)
{
    CampaignConfig cfg;
    cfg.benchmark = "micro";
    cfg.coreName = core;
    cfg.component = component;
    cfg.numInjections = 40;
    cfg.seed = 99;
    return cfg;
}

TEST(Campaign, GoldenRunMatchesReference)
{
    InjectionCampaign campaign(
        microConfig("marss-x86", "int_regfile"));
    const auto &golden = campaign.golden();
    EXPECT_EQ(golden.term, syskit::Termination::Exited);
    EXPECT_GT(golden.cycles, 0u);
    EXPECT_EQ(golden.output.size(), 64u);
}

TEST(Campaign, RunsProduceRecords)
{
    InjectionCampaign campaign(microConfig("marss-x86", "l1d"));
    const auto result = campaign.run();
    // Pruned runs carry precomputed outcomes instead of executed
    // records; together they cover the whole campaign.
    EXPECT_EQ(result.records.size() + result.pruned.size(), 40u);
    EXPECT_EQ(result.records.size(), result.pruneStats.simulated);
    EXPECT_EQ(result.recordRunIds.size(), result.records.size());
    EXPECT_EQ(result.masks.size(), 40u);
    Parser parser;
    const auto counts = result.classify(parser);
    EXPECT_EQ(counts.total(), 40u);
}

TEST(Campaign, DeterministicAcrossRuns)
{
    auto run_once = [] {
        InjectionCampaign campaign(microConfig("gem5-x86", "l1d"));
        Parser parser;
        return campaign.run().classify(parser);
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.counts, b.counts);
}

TEST(Campaign, CheckpointsDoNotChangeOutcomes)
{
    auto cfg = microConfig("marss-x86", "l1d");
    Parser parser;

    cfg.useCheckpoints = true;
    InjectionCampaign with(cfg);
    const auto a = with.run().classify(parser);

    cfg.useCheckpoints = false;
    InjectionCampaign without(cfg);
    const auto b = without.run().classify(parser);

    EXPECT_EQ(a.counts, b.counts);
}

TEST(Campaign, CheckpointScheduleIsStrictlyEarlier)
{
    InjectionCampaign campaign(microConfig("marss-x86", "l1d"));
    (void)campaign.golden();
    const CheckpointStore &store = campaign.checkpoints();

    // The base snapshot is cycle 0 and the schedule ascends.
    const auto &cycles = store.cycles();
    ASSERT_GE(cycles.size(), 2u);
    EXPECT_EQ(cycles.front(), 0u);
    for (std::size_t i = 1; i < cycles.size(); ++i)
        EXPECT_GT(cycles[i], cycles[i - 1]);

    // An injection AT a checkpoint cycle restores the strictly
    // earlier snapshot: restoring at the injection cycle itself would
    // apply the flip one state transition late.
    EXPECT_EQ(store.indexFor(0), 0u);
    for (std::size_t i = 1; i < cycles.size(); ++i) {
        EXPECT_EQ(store.indexFor(cycles[i]), i - 1);
        EXPECT_EQ(store.indexFor(cycles[i] + 1), i);
        EXPECT_LT(store.sourceFor(cycles[i]).cycle(), cycles[i]);
    }
}

TEST(Campaign, InjectionAtCheckpointCycleMatchesFromReset)
{
    // Boundary determinism: a mask landing exactly on, or one cycle
    // after, a checkpoint cycle must produce the same record whether
    // the run restores from a snapshot or replays from reset.  Runs
    // restore from the dense store, whose cycles include the coarse
    // store's, and from the snapshot strictly before the mask.
    for (const char *component : {"l1d", "int_regfile"}) {
        auto cfg = microConfig("marss-x86", component);
        InjectionCampaign with(cfg);
        const std::shared_ptr<const CheckpointStore> dense =
            with.prepared()->refined();
        const auto &cycles = dense->cycles();
        ASSERT_GT(cycles.size(), with.checkpoints().count());

        cfg.useCheckpoints = false;
        InjectionCampaign without(cfg);
        (void)without.golden();
        ASSERT_EQ(without.checkpoints().count(), 1u);

        const StructureId structure = std::string(component) == "l1d"
                                          ? StructureId::L1DData
                                          : StructureId::IntRegFile;
        for (std::size_t i = 1; i < cycles.size(); ++i) {
            for (const std::uint64_t at : {cycles[i], cycles[i] + 1}) {
                dfi::FaultMask mask;
                mask.structure = structure;
                mask.entry = 3;
                mask.bit = 5;
                mask.type = FaultType::Transient;
                mask.cycle = at;

                std::uint64_t simulated = 0;
                const auto a = with.runOne({mask}, &simulated);
                const auto b = without.runOne({mask});
                EXPECT_EQ(simulated, a.cycles - dense->sourceFor(at).cycle())
                    << "restored from the dense snapshot before " << at;
                EXPECT_EQ(a.term, b.term) << component << " cycle " << at;
                EXPECT_EQ(a.exitCode, b.exitCode);
                EXPECT_EQ(a.output, b.output);
                EXPECT_EQ(a.cycles, b.cycles);
                EXPECT_EQ(a.instructions, b.instructions);
                EXPECT_EQ(a.earlyStopMasked, b.earlyStopMasked);
                EXPECT_EQ(a.earlyStopReason, b.earlyStopReason);
            }
        }
    }
}

TEST(Campaign, CheckpointBudgetDropsToBaseSnapshot)
{
    // The micro image alone is 2 MiB of guest memory, so a 1 MiB
    // budget cannot afford a second snapshot: capture must drop to
    // the base one (runs start from reset) rather than exceed the
    // budget — and outcomes must not change.  The dense store the
    // runs restore from stays under the same budget.  Unpruned, so
    // every run restores.
    auto cfg = microConfig("marss-x86", "l1d");
    cfg.prune = false;
    Parser parser;

    InjectionCampaign unlimited(cfg);
    const auto a = unlimited.run().classify(parser);
    EXPECT_GE(unlimited.checkpoints().count(), 2u);
    EXPECT_GT(unlimited.prepared()->refined()->count(),
              unlimited.checkpoints().count());

    cfg.checkpointMemBudgetMB = 1;
    InjectionCampaign tight(cfg);
    const auto b = tight.run().classify(parser);
    const CheckpointStore &store = tight.checkpoints();
    EXPECT_GT(store.snapshotBoundBytes(), 1u << 20);
    EXPECT_EQ(store.maxLiveSnapshots(), 1u);
    EXPECT_EQ(store.count(), 1u);
    EXPECT_TRUE(store.budgetLimited());
    const std::shared_ptr<const CheckpointStore> dense =
        tight.prepared()->refined();
    EXPECT_EQ(dense->maxLiveSnapshots(), 1u);
    EXPECT_EQ(dense->count(), 1u);
    EXPECT_TRUE(dense->budgetLimited());

    EXPECT_EQ(a.counts, b.counts);
}

TEST(Campaign, CycleZeroTransientStopsOnInvalidEntry)
{
    // Regression: runTask() used to mark cycle-0 transients as
    // already injected before evaluating either early-stop rule, so
    // a flip into a line that is invalid at reset ran the whole
    // program instead of stopping immediately as Masked.
    InjectionCampaign campaign(microConfig("marss-x86", "l1d"));
    (void)campaign.golden();

    dfi::FaultMask mask;
    mask.structure = StructureId::L1DData;
    mask.entry = 0;
    mask.bit = 0;
    mask.type = FaultType::Transient;
    mask.cycle = 0; // nothing is cached at reset
    std::uint64_t simulated = 0;
    const auto record = campaign.runOne({mask}, &simulated);
    EXPECT_TRUE(record.earlyStopMasked);
    EXPECT_EQ(record.earlyStopReason, "invalid-entry");
    EXPECT_EQ(simulated, 0u);
}

TEST(Campaign, CycleZeroTransientArmsOverwriteWatch)
{
    // Companion regression for rule (ii): with the invalid-entry rule
    // off, a cycle-0 flip into a free physical register must still
    // arm the overwrite watch, which fires when rename allocates and
    // writes that register before anything reads it.
    auto cfg = microConfig("marss-x86", "int_regfile");
    cfg.earlyStopInvalidEntry = false;
    InjectionCampaign campaign(cfg);
    (void)campaign.golden();

    dfi::FaultMask mask;
    mask.structure = StructureId::IntRegFile;
    mask.entry = 17; // first free physical register at reset
    mask.bit = 0;
    mask.type = FaultType::Transient;
    mask.cycle = 0;
    const auto record = campaign.runOne({mask});
    EXPECT_TRUE(record.earlyStopMasked);
    EXPECT_EQ(record.earlyStopReason, "overwritten-before-read");
}

TEST(Campaign, EarlyStopsOnlyRelabelMaskedRuns)
{
    // Disabling both early-stop rules must yield the same
    // vulnerability (the optimization may never change a non-masked
    // outcome, only save time on masked ones).
    auto cfg = microConfig("gem5-x86", "l1d");
    Parser parser;

    InjectionCampaign fast(cfg);
    const auto quick = fast.run();
    const auto a = quick.classify(parser);

    cfg.earlyStopInvalidEntry = false;
    cfg.earlyStopOverwrite = false;
    InjectionCampaign slow(cfg);
    const auto full = slow.run();
    const auto b = full.classify(parser);

    EXPECT_EQ(a.counts, b.counts);
    // And it must actually save simulated cycles.
    EXPECT_LT(quick.simulatedFaultyCycles, full.simulatedFaultyCycles);
}

TEST(Campaign, SamplingDerivesRunCount)
{
    auto cfg = microConfig("marss-x86", "int_regfile");
    cfg.numInjections = 0; // derive from confidence/margin
    cfg.confidence = 0.95;
    cfg.margin = 0.2; // deliberately loose: few runs
    InjectionCampaign campaign(cfg);
    const auto result = campaign.run();
    const std::size_t planned =
        result.records.size() + result.pruned.size();
    EXPECT_GT(planned, 10u);
    EXPECT_LT(planned, 60u);
}

TEST(Campaign, DirectedSingleRun)
{
    InjectionCampaign campaign(microConfig("marss-x86", "l1d"));
    (void)campaign.golden();

    dfi::FaultMask mask;
    mask.structure = StructureId::L1DData;
    mask.entry = 0;
    mask.bit = 0;
    mask.type = FaultType::Transient;
    mask.cycle = 100;
    const auto record = campaign.runOne({mask});
    // Deterministic single-fault record: either it terminated some
    // way or it was early-stopped; both are valid records.
    EXPECT_TRUE(record.earlyStopMasked ||
                record.term == syskit::Termination::Exited ||
                record.term != syskit::Termination::Exited);
}

TEST(Campaign, PermanentFaultCampaignRuns)
{
    auto cfg = microConfig("gem5-x86", "int_regfile");
    cfg.faultType = FaultType::Permanent;
    cfg.numInjections = 15;
    InjectionCampaign campaign(cfg);
    const auto result = campaign.run();
    EXPECT_EQ(result.records.size(), 15u);
    // Permanent faults are never early-stopped.
    for (const auto &record : result.records)
        EXPECT_FALSE(record.earlyStopMasked);
}

TEST(Campaign, IntermittentFaultCampaignRuns)
{
    auto cfg = microConfig("gem5-arm", "l1d");
    cfg.faultType = FaultType::Intermittent;
    cfg.numInjections = 15;
    InjectionCampaign campaign(cfg);
    const auto result = campaign.run();
    EXPECT_EQ(result.records.size(), 15u);
}

TEST(Campaign, MultiBitCampaignRuns)
{
    auto cfg = microConfig("marss-x86", "l1d");
    cfg.population = Population::DoubleRandom;
    cfg.numInjections = 15;
    InjectionCampaign campaign(cfg);
    const auto result = campaign.run();
    EXPECT_EQ(result.records.size(), 15u);
    EXPECT_EQ(result.masks.size(), 30u);
}

TEST(Campaign, TimeoutBoundsRunLength)
{
    auto cfg = microConfig("marss-x86", "l1i");
    cfg.numInjections = 60;
    cfg.timeoutFactor = 3.0;
    InjectionCampaign campaign(cfg);
    const auto result = campaign.run();
    const auto bound = static_cast<std::uint64_t>(
        result.golden.cycles * 3.0);
    for (const auto &record : result.records)
        EXPECT_LE(record.cycles, bound + 2);
}

TEST(Facades, MaFinPinsMarss)
{
    auto campaign =
        mafin::makeCampaign(microConfig("gem5-x86", "int_regfile"));
    // The facade overrides whatever core was configured.
    EXPECT_EQ(campaign.golden().term, syskit::Termination::Exited);
    EXPECT_EQ(mafin::simulatorConfig().name, "marss-x86");
    EXPECT_TRUE(mafin::simulatorConfig().unifiedLsq);
}

TEST(Facades, GeFinSupportsBothIsas)
{
    EXPECT_EQ(gefin::simulatorConfig(isa::IsaKind::X86).name,
              "gem5-x86");
    EXPECT_EQ(gefin::simulatorConfig(isa::IsaKind::Arm).name,
              "gem5-arm");
    EXPECT_FALSE(gefin::simulatorConfig(isa::IsaKind::X86).unifiedLsq);
    auto campaign = gefin::makeCampaign(
        microConfig("marss-x86", "int_regfile"), isa::IsaKind::Arm);
    EXPECT_EQ(campaign.golden().term, syskit::Termination::Exited);
}

TEST(Report, FigureAggregation)
{
    FigureReport report("test figure", {"A", "B"});
    ClassCounts mostly_masked;
    for (int i = 0; i < 90; ++i)
        mostly_masked.add(OutcomeClass::Masked);
    for (int i = 0; i < 10; ++i)
        mostly_masked.add(OutcomeClass::Sdc);
    ClassCounts all_masked;
    for (int i = 0; i < 100; ++i)
        all_masked.add(OutcomeClass::Masked);

    report.add("bench1", "A", mostly_masked);
    report.add("bench1", "B", all_masked);
    report.add("bench2", "A", all_masked);
    report.add("bench2", "B", all_masked);

    EXPECT_DOUBLE_EQ(report.vulnerability("bench1", "A"), 10.0);
    EXPECT_DOUBLE_EQ(report.average("A").vulnerability(), 5.0);
    EXPECT_DOUBLE_EQ(report.average("B").vulnerability(), 0.0);

    const std::string table = report.renderTable();
    EXPECT_NE(table.find("AVERAGE"), std::string::npos);
    const std::string bars = report.renderBars();
    EXPECT_NE(bars.find("vulnerable"), std::string::npos);
    const std::string summary = report.renderSummary();
    EXPECT_NE(summary.find("average vulnerability"),
              std::string::npos);

    // The JSON twin carries every cell's counts (an ASan build catches
    // a cell built from a dead temporary).
    const json::Value doc = report.toJson();
    const json::Value &cells = doc.get("cells");
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells.at(0).get("benchmark").asString(), "bench1");
    EXPECT_EQ(cells.at(0).get("setup").asString(), "A");
    EXPECT_EQ(cells.at(0).get("runs").asUint(), 100u);
    EXPECT_DOUBLE_EQ(
        cells.at(0).get("vulnerability_percent").asDouble(), 10.0);
    EXPECT_DOUBLE_EQ(
        doc.get("averages").get("A").get("vulnerability_percent").asDouble(),
        5.0);
}

TEST(CampaignConfigValidate, DefaultAndMicroConfigsAreClean)
{
    EXPECT_TRUE(CampaignConfig{}.validate().empty());
    EXPECT_TRUE(
        microConfig("gem5-arm", "int_regfile").validate().empty());
}

TEST(CampaignConfigValidate, ReportsEveryViolationWithItsField)
{
    CampaignConfig cfg = microConfig("marss-x86", "int_regfile");
    cfg.coreName = "vax-11";
    cfg.component = "flux_capacitor";
    cfg.benchmark = "doom";
    cfg.confidence = 1.5;
    cfg.margin = 0.0;
    cfg.cacheScale = -1.0;
    cfg.timeoutFactor = 0.5;
    cfg.scale = 0;
    cfg.shard = ShardSpec{3, 2};
    cfg.resumeFrom = "partial.jsonl"; // without telemetryOut
    cfg.checkpointMemBudgetMB = (1ull << 44) + 1; // bytes wrap

    const std::vector<ConfigError> errors = cfg.validate();
    std::vector<std::string> fields;
    for (const ConfigError &error : errors) {
        EXPECT_FALSE(error.message.empty()) << error.field;
        fields.push_back(error.field);
    }
    for (const char *field :
         {"core", "component", "benchmark", "confidence", "margin",
          "cache_scale", "timeout_factor", "scale", "shard",
          "resume", "checkpoint_budget_mb"}) {
        EXPECT_NE(std::find(fields.begin(), fields.end(), field),
                  fields.end())
            << "no error for field " << field;
    }
}

TEST(CampaignConfigValidate, ShardBounds)
{
    CampaignConfig cfg = microConfig("marss-x86", "int_regfile");
    cfg.shard = ShardSpec{0, 4};
    EXPECT_TRUE(cfg.validate().empty());
    cfg.shard = ShardSpec{3, 4};
    EXPECT_TRUE(cfg.validate().empty());
    cfg.shard = ShardSpec{4, 4};
    ASSERT_EQ(cfg.validate().size(), 1u);
    EXPECT_EQ(cfg.validate()[0].field, "shard");
    cfg.shard = ShardSpec{0, 0};
    ASSERT_EQ(cfg.validate().size(), 1u);
    EXPECT_EQ(cfg.validate()[0].field, "shard");
}

TEST(CampaignConfigValidate, CampaignRefusesInvalidConfig)
{
    CampaignConfig cfg = microConfig("marss-x86", "int_regfile");
    cfg.component = "flux_capacitor";
    EXPECT_THROW(InjectionCampaign(cfg).golden(), dfi::FatalError);
}

// ---------------------------------------------------------------
// bindCampaignFlags(): the flags dfi-campaign and dfi-serve share
// ---------------------------------------------------------------

/** Parse `tokens` with only the shared campaign flags registered. */
cli::ParseResult
parseCampaignFlags(std::vector<std::string> tokens, CampaignConfig &cfg,
                   std::string &error)
{
    cli::FlagSet flags("tool", "[options]");
    bindCampaignFlags(flags, cfg);
    std::vector<char *> argv;
    std::string name = "tool";
    argv.push_back(name.data());
    for (std::string &token : tokens)
        argv.push_back(token.data());
    return flags.parse(static_cast<int>(argv.size()), argv.data(),
                       error);
}

TEST(CampaignFlags, BindEverySharedFlagIntoTheConfig)
{
    CampaignConfig cfg;
    std::string error;
    ASSERT_EQ(parseCampaignFlags(
                  {"--core", "gem5-arm", "--benchmark", "qsort",
                   "--component", "rob", "--scale", "3",
                   "--injections", "99", "--confidence", "0.95",
                   "--margin", "0.05", "--fault-type", "intermittent",
                   "--population", "double-random", "--seed", "1234",
                   "--exhaustive", "--no-prune", "--jobs", "4",
                   "--timeout-factor", "5", "--cache-scale", "0.5",
                   "--no-early-stop", "--no-checkpoints",
                   "--checkpoints", "9", "--checkpoint-budget", "64",
                   "--telemetry-timing"},
                  cfg, error),
              cli::ParseResult::Ok)
        << error;
    EXPECT_EQ(cfg.coreName, "gem5-arm");
    EXPECT_EQ(cfg.benchmark, "qsort");
    EXPECT_EQ(cfg.component, "rob");
    EXPECT_EQ(cfg.scale, 3u);
    EXPECT_EQ(cfg.numInjections, 99u);
    EXPECT_EQ(cfg.confidence, 0.95);
    EXPECT_EQ(cfg.margin, 0.05);
    EXPECT_EQ(cfg.faultType, FaultType::Intermittent);
    EXPECT_EQ(cfg.population, Population::DoubleRandom);
    EXPECT_EQ(cfg.seed, 1234u);
    EXPECT_TRUE(cfg.exhaustive);
    EXPECT_FALSE(cfg.prune);
    EXPECT_EQ(cfg.jobs, 4u);
    EXPECT_EQ(cfg.timeoutFactor, 5.0);
    EXPECT_EQ(cfg.cacheScale, 0.5);
    EXPECT_FALSE(cfg.earlyStopInvalidEntry);
    EXPECT_FALSE(cfg.earlyStopOverwrite);
    EXPECT_FALSE(cfg.useCheckpoints);
    EXPECT_EQ(cfg.checkpointCount, 9u);
    EXPECT_EQ(cfg.checkpointMemBudgetMB, 64u);
    EXPECT_TRUE(cfg.telemetryTiming);

    // The tool-only fields stay for the tool to bind.
    const CampaignConfig defaults;
    EXPECT_EQ(cfg.intermittentMin, defaults.intermittentMin);
    EXPECT_EQ(cfg.intermittentMax, defaults.intermittentMax);
    EXPECT_EQ(cfg.shard.count, 1u);
    EXPECT_TRUE(cfg.resumeFrom.empty());
    EXPECT_TRUE(cfg.telemetryOut.empty());

    // Exactly the twenty flags above, and --jobs states the default
    // of the config it was bound to.
    cfg.jobs = 7;
    cli::FlagSet flags("tool", "[options]");
    bindCampaignFlags(flags, cfg);
    const std::string usage = flags.usage();
    std::size_t registered = 0;
    for (std::size_t at = usage.find("\n  --");
         at != std::string::npos; at = usage.find("\n  --", at + 1))
        ++registered;
    EXPECT_EQ(registered, 20u) << usage;
    EXPECT_NE(usage.find("(default 7;"), std::string::npos) << usage;
}

TEST(CampaignFlags, BadValuesNameTheFlagAndTheDomain)
{
    CampaignConfig cfg;
    std::string error;
    EXPECT_EQ(parseCampaignFlags({"--fault-type", "x"}, cfg, error),
              cli::ParseResult::Error);
    EXPECT_EQ(error, "invalid value 'x' for --fault-type (expected "
                     "transient | intermittent | permanent)");
    EXPECT_EQ(parseCampaignFlags({"--population", "x"}, cfg, error),
              cli::ParseResult::Error);
    EXPECT_EQ(error, "invalid value 'x' for --population (expected "
                     "single | double-adjacent | double-random | "
                     "multi-structure)");
    EXPECT_EQ(cfg.faultType, FaultType::Transient);
    EXPECT_EQ(cfg.population, Population::SingleBit);

    // 32-bit fields refuse a 33-bit value instead of truncating it.
    for (const char *flag : {"--scale", "--checkpoints", "--jobs"}) {
        EXPECT_EQ(parseCampaignFlags({flag, "4294967296"}, cfg, error),
                  cli::ParseResult::Error)
            << flag;
        EXPECT_EQ(error, std::string("invalid value '4294967296' for ") +
                             flag + " (expected an unsigned integer)");
    }
    EXPECT_EQ(cfg.scale, 1u);
    EXPECT_EQ(cfg.checkpointCount, 6u);
    EXPECT_EQ(parseCampaignFlags({"--scale", "4294967295"}, cfg, error),
              cli::ParseResult::Ok)
        << error;
    EXPECT_EQ(cfg.scale, 4294967295u);
}

} // namespace
