/**
 * @file
 * Tests for the staged classification pipeline (inject/prune.hh and
 * the CampaignPlan pruning stages): the pruned-vs-unpruned
 * determinism contract, plan view composition over pruned plans
 * (shard promotion, resume subtraction), exhaustive enumeration, and
 * the config gates.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "inject/campaign.hh"
#include "inject/plan.hh"
#include "inject/target.hh"
#include "inject/telemetry.hh"
#include "uarch/ooo_core.hh"

namespace
{

using namespace dfi;
using namespace dfi::inject;

/**
 * Fixed-seed sampled campaign whose classification pipeline exercises
 * all three verdict buckets (simulated, statically pruned, and
 * equivalence-pruned) on the micro workload — verified empirically
 * and locked by PruneBucketsArePopulated below.
 */
CampaignConfig
mixedConfig()
{
    CampaignConfig cfg;
    cfg.coreName = "marss-x86";
    cfg.benchmark = "micro";
    cfg.component = "l1d_valid";
    cfg.numInjections = 400;
    cfg.seed = 0x5eed;
    return cfg;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
}

/** Temp dir per test, removed on destruction. */
struct TempDir
{
    std::filesystem::path path;

    TempDir()
    {
        path = std::filesystem::temp_directory_path() /
               ("dfi_prune_test_" +
                std::to_string(
                    ::testing::UnitTest::GetInstance()->random_seed()) +
                "_" + ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
};

/**
 * A 10-run single-bit plan with a hand-written verdict for every run:
 * three survivors (0, 3, 8 — two of them class representatives),
 * three static prunes, one golden-equivalent, and three equivalence
 * members, two of whose representatives live across a 2-shard split.
 */
CampaignPlan
syntheticPrunedPlan()
{
    constexpr std::uint64_t kRuns = 10;
    std::vector<FaultMask> masks(kRuns);
    for (std::uint64_t i = 0; i < kRuns; ++i) {
        masks[i].runId = static_cast<std::uint32_t>(i);
        masks[i].structure = StructureId::IntRegFile;
        masks[i].entry = static_cast<std::uint32_t>(i);
        masks[i].bit = 1;
        masks[i].type = FaultType::Transient;
        masks[i].cycle = i + 1;
    }
    syskit::RunRecord golden;
    golden.term = syskit::Termination::Exited;
    golden.cycles = 100;
    golden.instructions = 90;

    CampaignPlan plan(CampaignConfig{}, golden, masks, kRuns);

    std::vector<SiteClassification> cls(kRuns);
    auto simulate = [&cls](std::uint64_t id, std::uint64_t klass) {
        cls[id].verdict = SiteVerdict::Simulate;
        cls[id].pruneClass = klass;
    };
    auto member = [&cls](std::uint64_t id, std::uint64_t rep,
                         std::uint64_t klass) {
        cls[id].verdict = SiteVerdict::EquivMember;
        cls[id].repRunId = rep;
        cls[id].pruneClass = klass;
    };
    simulate(0, 1); // rep of class 1
    cls[1].verdict = SiteVerdict::InvalidEntry;
    cls[1].cycles = 0;
    member(2, 0, 1);
    simulate(3, 2); // rep of class 2
    member(4, 3, 2);
    cls[5].verdict = SiteVerdict::DeadOverwrite;
    cls[5].cycles = 40;
    cls[5].instructions = 33;
    cls[6].verdict = SiteVerdict::GoldenRun;
    cls[6].cycles = 100;
    cls[6].instructions = 90;
    member(7, 0, 1);
    simulate(8, 3); // rep of class 3
    member(9, 8, 3);

    plan.applyPruning(cls);
    return plan;
}

std::vector<std::uint64_t>
taskRunIds(const CampaignPlan &plan)
{
    std::vector<std::uint64_t> ids;
    for (const RunTask &task : plan.tasks())
        ids.push_back(task.runId);
    return ids;
}

std::vector<std::uint64_t>
prunedRunIds(const CampaignPlan &plan)
{
    std::vector<std::uint64_t> ids;
    for (const PrunedRun &pruned : plan.pruned())
        ids.push_back(pruned.runId);
    return ids;
}

TEST(PrunePlan, ApplyPruningSplitsTasksAndKeepsStats)
{
    const CampaignPlan plan = syntheticPrunedPlan();
    EXPECT_EQ(taskRunIds(plan),
              (std::vector<std::uint64_t>{0, 3, 8}));
    EXPECT_EQ(prunedRunIds(plan),
              (std::vector<std::uint64_t>{1, 2, 4, 5, 6, 7, 9}));
    EXPECT_EQ(plan.pruneStats().simulated, 3u);
    EXPECT_EQ(plan.pruneStats().prunedStatic, 3u);
    EXPECT_EQ(plan.pruneStats().prunedEquiv, 4u);
    EXPECT_EQ(plan.totalRuns(), 10u);
    EXPECT_EQ(plan.tasks()[0].pruneClass, 1u);
    EXPECT_EQ(plan.tasks()[1].pruneClass, 2u);
    EXPECT_EQ(plan.tasks()[2].pruneClass, 3u);
}

TEST(PrunePlan, ShardViewPromotesStrandedEquivMembers)
{
    const CampaignPlan plan = syntheticPrunedPlan();

    // Even shard: member 4's representative (3) is odd, so 4 is
    // promoted back to a real task; members 2 (rep 0) stay pruned.
    const CampaignPlan even = plan.shardView(ShardSpec{0, 2});
    EXPECT_EQ(taskRunIds(even),
              (std::vector<std::uint64_t>{0, 4, 8}));
    EXPECT_EQ(prunedRunIds(even),
              (std::vector<std::uint64_t>{2, 6}));
    // The promoted task carries the member's mask and class id.
    EXPECT_EQ(even.tasks()[1].runId, 4u);
    ASSERT_EQ(even.tasks()[1].masks.size(), 1u);
    EXPECT_EQ(even.tasks()[1].masks[0].cycle, 5u);
    EXPECT_EQ(even.tasks()[1].firstCycle, 5u);
    EXPECT_EQ(even.tasks()[1].pruneClass, 2u);

    // Odd shard: members 7 and 9 have even representatives.
    const CampaignPlan odd = plan.shardView(ShardSpec{1, 2});
    EXPECT_EQ(taskRunIds(odd),
              (std::vector<std::uint64_t>{3, 7, 9}));
    EXPECT_EQ(prunedRunIds(odd),
              (std::vector<std::uint64_t>{1, 5}));

    // Shards partition the campaign and report campaign-wide stats.
    EXPECT_EQ(even.tasks().size() + even.pruned().size() +
                  odd.tasks().size() + odd.pruned().size(),
              10u);
    EXPECT_EQ(even.pruneStats().simulated, 3u);
    EXPECT_EQ(odd.pruneStats().prunedEquiv, 4u);
    EXPECT_EQ(even.totalRuns(), 10u);
}

TEST(PrunePlan, WithoutRunsAcceptsPrunedRunIds)
{
    const CampaignPlan plan = syntheticPrunedPlan();

    // A resume stream may name pruned runs (their records were
    // emitted too): subtracting them must work.
    const CampaignPlan view = plan.withoutRuns({1, 2, 3});
    EXPECT_EQ(taskRunIds(view), (std::vector<std::uint64_t>{0, 8}));
    EXPECT_EQ(prunedRunIds(view),
              (std::vector<std::uint64_t>{4, 5, 6, 7, 9}));
    EXPECT_EQ(view.pruneStats().simulated, 3u); // campaign-wide

    // A runId outside the campaign is a wrong-resume-file error.
    EXPECT_THROW(plan.withoutRuns({42}), FatalError);
}

TEST(Prune, BucketsArePopulated)
{
    InjectionCampaign campaign(mixedConfig());
    const auto summary = campaign.planSummary();
    EXPECT_EQ(summary.totalRuns, 400u);
    EXPECT_GT(summary.stats.simulated, 0u);
    EXPECT_GT(summary.stats.prunedStatic, 0u);
    EXPECT_GT(summary.stats.prunedEquiv, 0u);
    EXPECT_EQ(summary.stats.simulated + summary.stats.prunedStatic +
                  summary.stats.prunedEquiv,
              400u);
    EXPECT_GT(summary.estimatedSimulatedCycles, 0u);
}

TEST(Prune, PrunedAndUnprunedTelemetryAreByteIdentical)
{
    TempDir dir;
    CampaignConfig pruned_cfg = mixedConfig();
    pruned_cfg.telemetryOut = (dir.path / "pruned").string();
    const CampaignResult pruned = InjectionCampaign(pruned_cfg).run();

    CampaignConfig full_cfg = mixedConfig();
    full_cfg.prune = false;
    full_cfg.telemetryOut = (dir.path / "unpruned").string();
    const CampaignResult full = InjectionCampaign(full_cfg).run();

    // The pipeline really removed work ...
    EXPECT_GT(pruned.pruneStats.prunedStatic, 0u);
    EXPECT_GT(pruned.pruneStats.prunedEquiv, 0u);
    EXPECT_LT(pruned.records.size(), full.records.size());
    EXPECT_LT(pruned.simulatedFaultyCycles,
              full.simulatedFaultyCycles);
    // ... without changing the classification output: exact-diff
    // equality over every non-volatile field (the prune tallies and
    // per-run class ids are volatile — they describe the execution
    // strategy, not the outcome).
    std::string report;
    EXPECT_EQ(diffTelemetryFiles((dir.path / "pruned.jsonl").string(),
                                 (dir.path / "unpruned.jsonl").string(),
                                 DiffOptions{}, report),
              DiffOutcome::Equal)
        << report;
    EXPECT_EQ(
        diffTelemetryFiles((dir.path / "pruned.summary.json").string(),
                           (dir.path / "unpruned.summary.json").string(),
                           DiffOptions{}, report),
        DiffOutcome::Equal)
        << report;

    // The in-memory tallies agree too.
    Parser parser;
    EXPECT_EQ(pruned.classify(parser).counts,
              full.classify(parser).counts);
}

TEST(Prune, ResumeAfterPruneIsDeterministic)
{
    TempDir dir;
    CampaignConfig cfg = mixedConfig();
    cfg.telemetryOut = (dir.path / "whole").string();
    InjectionCampaign(cfg).run();
    const std::string runs = readFile(dir.path / "whole.jsonl");
    const std::string summary =
        readFile(dir.path / "whole.summary.json");

    // Keep the header plus the first 60 records (a mix of pruned and
    // simulated runs) and resume from that partial stream.
    std::istringstream stream(runs);
    std::string line;
    std::string partial;
    for (int i = 0; i < 61 && std::getline(stream, line); ++i) {
        partial += line;
        partial += '\n';
    }
    writeFile(dir.path / "partial.jsonl", partial);

    CampaignConfig resume = mixedConfig();
    resume.resumeFrom = (dir.path / "partial.jsonl").string();
    resume.telemetryOut = (dir.path / "resumed").string();
    const CampaignResult result = InjectionCampaign(resume).run();

    EXPECT_EQ(readFile(dir.path / "resumed.jsonl"), runs);
    EXPECT_EQ(readFile(dir.path / "resumed.summary.json"), summary);
    // The resumed process covered exactly the remainder.
    EXPECT_EQ(result.records.size() + result.pruned.size(),
              400u - 60u);
}

TEST(Exhaustive, EnumeratesEveryBitCycleSite)
{
    CampaignConfig cfg = mixedConfig();
    cfg.numInjections = 0;
    cfg.exhaustive = true;
    InjectionCampaign campaign(cfg);
    const auto summary = campaign.planSummary();
    // l1d_valid has one valid bit per line; the space is
    // totalBits x golden cycles.
    EXPECT_EQ(summary.totalRuns % campaign.golden().cycles, 0u);
    EXPECT_GT(summary.totalRuns, 1000u);
    EXPECT_EQ(summary.maskCount, summary.totalRuns);
    EXPECT_EQ(summary.stats.simulated + summary.stats.prunedStatic +
                  summary.stats.prunedEquiv,
              summary.totalRuns);
    // Exhaustive spaces collapse massively under the pipeline.
    EXPECT_LT(summary.stats.simulated, summary.totalRuns / 10);
    EXPECT_GT(summary.stats.prunedEquiv, 0u);

    const CampaignResult result = campaign.run();
    EXPECT_EQ(result.records.size() + result.pruned.size(),
              summary.totalRuns);
    EXPECT_EQ(result.records.size(), summary.stats.simulated);
    Parser parser;
    EXPECT_EQ(result.classify(parser).total(), summary.totalRuns);
}

/**
 * The trace records liveness only where the core reports a change
 * (OooCore's LivenessSink, the cache valid arrays' writes).  Every
 * entry of every traced structure must still read exactly what
 * entryLive() returns at every check cycle, where early-stop rule (i)
 * reads it: after tick c-1, before tick c.
 */
TEST(GoldenTrace, LivenessMatchesEntryLiveEveryCycle)
{
    for (const char *core : {"marss-x86", "gem5-x86", "gem5-arm"}) {
        CampaignConfig cfg = mixedConfig();
        cfg.coreName = core;
        const std::shared_ptr<const PreparedCampaign> prep =
            InjectionCampaign(cfg).prepared();
        for (const char *component :
             {"int_regfile", "issue_queue", "lsq", "l1d", "l1d_tag",
              "l1i", "l2"}) {
            const std::shared_ptr<const GoldenTrace> trace =
                prep->trace(component);
            uarch::OooCore reference = prep->checkpoints.sourceFor(0);
            const std::vector<StructureId> structures =
                resolveComponent(component, reference);
            ASSERT_EQ(trace->structures.size(), structures.size());
            std::uint64_t checked = 0;
            std::uint64_t live = 0;
            for (std::uint64_t cycle = 1; cycle <= prep->golden.cycles;
                 ++cycle) {
                for (const StructureId id : structures) {
                    const StructureTrace *entries = trace->find(id);
                    ASSERT_NE(entries, nullptr);
                    const std::size_t count =
                        reference.arrayFor(id)->numEntries();
                    for (std::uint32_t e = 0; e < count; ++e) {
                        const bool expected = reference.entryLive(id, e);
                        ASSERT_EQ(entries->liveAt(e, cycle), expected)
                            << core << " " << component << " "
                            << structureName(id) << " entry " << e
                            << " cycle " << cycle;
                        ++checked;
                        live += expected ? 1 : 0;
                    }
                }
                if (!reference.tick())
                    break;
            }
            // Both verdicts occur, so the comparison is not vacuous.
            EXPECT_GT(live, 0u) << core << " " << component;
            EXPECT_LT(live, checked) << core << " " << component;
        }
    }
}

/**
 * The exhaustive lsq plan of `micro` is pinned: about 1.4 M sites per
 * core, split into simulated, statically pruned and equivalence-
 * pruned counts that a classifier change would move.  A second campaign
 * on the same adopted preparation classifies from the trace a
 * 24-injection campaign cached there, and must read the same counts.
 */
TEST(Prune, ExhaustiveMicroLsqCountsArePinned)
{
    struct Pinned
    {
        const char *core;
        std::uint64_t simulated;
        std::uint64_t prunedStatic;
        std::uint64_t prunedEquiv;
        std::uint64_t estimatedCycles;
    };
    const std::vector<Pinned> pins = {
        {"marss-x86", 6304, 1371008, 27616, 4137312},
        {"gem5-x86", 2208, 1491072, 4832, 1372928},
        {"gem5-arm", 2208, 1399552, 5216, 1327360},
    };
    for (const Pinned &pin : pins) {
        CampaignConfig cfg = mixedConfig();
        cfg.coreName = pin.core;
        cfg.component = "lsq";
        cfg.numInjections = 0;
        cfg.exhaustive = true;

        InjectionCampaign fresh(cfg);
        const auto summary = fresh.planSummary();
        EXPECT_EQ(summary.stats.simulated, pin.simulated) << pin.core;
        EXPECT_EQ(summary.stats.prunedStatic, pin.prunedStatic)
            << pin.core;
        EXPECT_EQ(summary.stats.prunedEquiv, pin.prunedEquiv)
            << pin.core;
        EXPECT_EQ(summary.estimatedSimulatedCycles, pin.estimatedCycles)
            << pin.core;

        CampaignConfig sampled = cfg;
        sampled.exhaustive = false;
        sampled.numInjections = 24;
        InjectionCampaign builder(sampled);
        const std::shared_ptr<const PreparedCampaign> prep =
            builder.prepared();
        builder.run();
        ASSERT_EQ(prep->traceBuilds(), 1u);

        InjectionCampaign cached(cfg);
        cached.adoptPrepared(prep);
        const auto again = cached.planSummary();
        EXPECT_EQ(prep->traceBuilds(), 1u) << "the trace was rebuilt";
        EXPECT_EQ(again.stats.simulated, pin.simulated) << pin.core;
        EXPECT_EQ(again.stats.prunedStatic, pin.prunedStatic)
            << pin.core;
        EXPECT_EQ(again.stats.prunedEquiv, pin.prunedEquiv)
            << pin.core;
        EXPECT_EQ(again.estimatedSimulatedCycles, pin.estimatedCycles)
            << pin.core;
    }
}

TEST(Exhaustive, ConfigGates)
{
    CampaignConfig cfg = mixedConfig();
    cfg.exhaustive = true;
    cfg.numInjections = 100; // contradiction: space defines the count
    {
        const auto errors = cfg.validate();
        ASSERT_EQ(errors.size(), 1u);
        EXPECT_EQ(errors[0].field, "injections");
    }
    cfg.numInjections = 0;
    cfg.faultType = FaultType::Permanent;
    {
        const auto errors = cfg.validate();
        ASSERT_EQ(errors.size(), 1u);
        EXPECT_EQ(errors[0].field, "exhaustive");
    }
    cfg.faultType = FaultType::Transient;
    cfg.population = Population::DoubleRandom;
    {
        const auto errors = cfg.validate();
        ASSERT_EQ(errors.size(), 1u);
        EXPECT_EQ(errors[0].field, "exhaustive");
    }
}

TEST(PruneGate, OnlySingleBitTransientsWithEarlyStops)
{
    CampaignConfig cfg = mixedConfig();
    EXPECT_TRUE(planPrunes(cfg));
    cfg.prune = false;
    EXPECT_FALSE(planPrunes(cfg));
    cfg.prune = true;
    cfg.faultType = FaultType::Permanent;
    EXPECT_FALSE(planPrunes(cfg));
    cfg.faultType = FaultType::Transient;
    cfg.population = Population::DoubleAdjacent;
    EXPECT_FALSE(planPrunes(cfg));
    cfg.population = Population::SingleBit;
    cfg.earlyStopOverwrite = false;
    EXPECT_FALSE(planPrunes(cfg));
    cfg.earlyStopOverwrite = true;
    cfg.earlyStopInvalidEntry = false;
    EXPECT_FALSE(planPrunes(cfg));
}

TEST(PruneGate, NoPruneCampaignExecutesEverything)
{
    CampaignConfig cfg = mixedConfig();
    cfg.numInjections = 25;
    cfg.prune = false;
    const CampaignResult result = InjectionCampaign(cfg).run();
    EXPECT_EQ(result.records.size(), 25u);
    EXPECT_TRUE(result.pruned.empty());
    EXPECT_EQ(result.pruneStats.simulated, 25u);
    EXPECT_EQ(result.pruneStats.prunedStatic, 0u);
}

} // namespace
