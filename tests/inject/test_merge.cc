/**
 * @file
 * Tests for sharded and resumable campaigns: the plan's shard/resume
 * views, shard ∪ dfi-merge byte-identity against the serial run on
 * all three core setups, merge refusals, and resume determinism
 * (including from a torn-tail partial and within a shard).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "inject/campaign.hh"
#include "inject/merge.hh"
#include "inject/plan.hh"
#include "inject/telemetry.hh"

namespace
{

using namespace dfi::inject;

CampaignConfig
smokeConfig()
{
    CampaignConfig cfg;
    cfg.coreName = "marss-x86";
    cfg.benchmark = "micro";
    cfg.component = "int_regfile";
    cfg.numInjections = 12;
    cfg.seed = 7;
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
    ASSERT_TRUE(out.good()) << path;
}

/** Temp dir per test, removed on destruction. */
struct TempDir
{
    std::filesystem::path path;

    TempDir()
    {
        path = std::filesystem::temp_directory_path() /
               ("dfi_merge_test_" +
                std::to_string(
                    ::testing::UnitTest::GetInstance()->random_seed()) +
                "_" + ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
};

/** A synthetic 6-run plan with one single-mask task per runId. */
CampaignPlan
syntheticPlan()
{
    std::vector<dfi::FaultMask> masks;
    for (std::uint32_t run = 0; run < 6; ++run) {
        dfi::FaultMask mask;
        mask.runId = run;
        mask.entry = run;
        mask.bit = run % 8;
        mask.cycle = 10 + run;
        masks.push_back(mask);
    }
    return CampaignPlan(smokeConfig(), dfi::syskit::RunRecord{},
                        std::move(masks), 6);
}

TEST(PlanViews, ShardViewPartitionsRunIdsByModulus)
{
    const CampaignPlan plan = syntheticPlan();
    EXPECT_EQ(plan.totalRuns(), 6u);

    std::unordered_set<std::uint64_t> seen;
    for (std::uint32_t index = 0; index < 3; ++index) {
        const CampaignPlan shard =
            plan.shardView(ShardSpec{index, 3});
        // The view keeps the campaign-wide size and mask repository.
        EXPECT_EQ(shard.totalRuns(), 6u);
        EXPECT_EQ(shard.masks().size(), plan.masks().size());
        ASSERT_EQ(shard.numRuns(), 2u);
        for (const RunTask &task : shard.tasks()) {
            EXPECT_EQ(task.runId % 3, index);
            EXPECT_TRUE(seen.insert(task.runId).second)
                << "runId " << task.runId << " in two shards";
        }
    }
    EXPECT_EQ(seen.size(), 6u); // the shards cover the campaign
}

TEST(PlanViews, WithoutRunsSkipsCompletedAndRejectsForeignRunIds)
{
    const CampaignPlan plan = syntheticPlan();
    const CampaignPlan rest = plan.withoutRuns({0, 1, 2});
    EXPECT_EQ(rest.totalRuns(), 6u);
    ASSERT_EQ(rest.numRuns(), 3u);
    for (std::size_t i = 0; i < rest.tasks().size(); ++i)
        EXPECT_EQ(rest.tasks()[i].runId, i + 3);

    // A completed runId outside the plan is a config/shard mismatch.
    EXPECT_THROW(plan.withoutRuns({99}), dfi::FatalError);
    // ... including one that belongs to a *different* shard view.
    const CampaignPlan shard0 = plan.shardView(ShardSpec{0, 2});
    EXPECT_THROW(shard0.withoutRuns({1}), dfi::FatalError);
}

TEST(Merge, ShardsMergeByteIdenticalToSerialOnAllCoreSetups)
{
    TempDir dir;
    for (const char *core : {"marss-x86", "gem5-x86", "gem5-arm"}) {
        CampaignConfig serial = smokeConfig();
        serial.coreName = core;
        serial.telemetryOut = (dir.path / "serial").string();
        InjectionCampaign(serial).run();
        const std::string runs = readFile(dir.path / "serial.jsonl");
        const std::string summary =
            readFile(dir.path / "serial.summary.json");

        for (std::uint32_t count : {2u, 4u}) {
            std::vector<std::string> shard_paths;
            for (std::uint32_t index = 0; index < count; ++index) {
                CampaignConfig cfg = smokeConfig();
                cfg.coreName = core;
                cfg.shard = ShardSpec{index, count};
                cfg.telemetryOut =
                    (dir.path /
                     ("s" + std::to_string(count) + "_" +
                      std::to_string(index)))
                        .string();
                InjectionCampaign(cfg).run();
                shard_paths.push_back(cfg.telemetryOut + ".jsonl");
            }

            MergeResult merged;
            std::string error;
            ASSERT_TRUE(
                mergeTelemetryStreams(shard_paths, merged, error))
                << core << " x" << count << ": " << error;
            EXPECT_EQ(merged.runs, 12u);
            EXPECT_EQ(merged.runsJsonl, runs)
                << core << " x" << count;
            EXPECT_EQ(merged.summaryJson, summary)
                << core << " x" << count;
        }
    }
}

TEST(Merge, WriteFilesEmitsTheMergedArtifacts)
{
    TempDir dir;
    CampaignConfig cfg = smokeConfig();
    cfg.shard = ShardSpec{0, 2};
    cfg.telemetryOut = (dir.path / "s0").string();
    InjectionCampaign(cfg).run();
    cfg.shard = ShardSpec{1, 2};
    cfg.telemetryOut = (dir.path / "s1").string();
    InjectionCampaign(cfg).run();

    MergeResult merged;
    std::string error;
    // Shard order must not matter.
    ASSERT_TRUE(mergeTelemetryStreams({(dir.path / "s1.jsonl").string(),
                                       (dir.path / "s0.jsonl").string()},
                                      merged, error))
        << error;
    ASSERT_TRUE(writeTelemetryArtifacts((dir.path / "merged").string(),
                                        merged.runsJsonl,
                                        merged.summaryJson, error))
        << error;
    EXPECT_EQ(readFile(dir.path / "merged.jsonl"), merged.runsJsonl);
    EXPECT_EQ(readFile(dir.path / "merged.summary.json"),
              merged.summaryJson);

    // The merged stream re-parses and diffs Equal against itself.
    std::string report;
    EXPECT_EQ(diffTelemetryFiles((dir.path / "merged.jsonl").string(),
                                 (dir.path / "merged.jsonl").string(),
                                 DiffOptions{}, report),
              DiffOutcome::Equal)
        << report;
}

TEST(Merge, RefusesIncompatibleOrIncompleteShardSets)
{
    TempDir dir;
    CampaignConfig cfg = smokeConfig();
    cfg.shard = ShardSpec{0, 2};
    cfg.telemetryOut = (dir.path / "s0").string();
    InjectionCampaign(cfg).run();
    cfg.shard = ShardSpec{1, 2};
    cfg.telemetryOut = (dir.path / "s1").string();
    InjectionCampaign(cfg).run();

    // A shard from a different campaign (other seed): header mismatch.
    CampaignConfig other = smokeConfig();
    other.seed = 8;
    other.shard = ShardSpec{1, 2};
    other.telemetryOut = (dir.path / "other").string();
    InjectionCampaign(other).run();

    const std::string s0 = (dir.path / "s0.jsonl").string();
    const std::string s1 = (dir.path / "s1.jsonl").string();

    MergeResult merged;
    std::string error;
    EXPECT_FALSE(mergeTelemetryStreams(
        {s0, (dir.path / "other.jsonl").string()}, merged, error));
    EXPECT_NE(error.find("header"), std::string::npos) << error;

    // An incomplete shard set: runs_total not covered.
    error.clear();
    EXPECT_FALSE(mergeTelemetryStreams({s0}, merged, error));
    EXPECT_NE(error.find("runs_total"), std::string::npos) << error;

    // A duplicated shard: overlapping runIds.
    error.clear();
    EXPECT_FALSE(mergeTelemetryStreams({s0, s1, s1}, merged, error));
    EXPECT_FALSE(error.empty());

    // No inputs at all.
    error.clear();
    EXPECT_FALSE(mergeTelemetryStreams({}, merged, error));
    EXPECT_FALSE(error.empty());

    // A summary document is not a run stream.
    error.clear();
    EXPECT_FALSE(mergeTelemetryStreams(
        {(dir.path / "s0.summary.json").string(), s1}, merged,
        error));
    EXPECT_FALSE(error.empty());
}

TEST(Resume, InterruptedCampaignResumesToIdenticalArtifacts)
{
    TempDir dir;
    CampaignConfig serial = smokeConfig();
    serial.telemetryOut = (dir.path / "serial").string();
    InjectionCampaign(serial).run();
    const std::string runs = readFile(dir.path / "serial.jsonl");
    const std::string summary =
        readFile(dir.path / "serial.summary.json");

    // Simulate a campaign killed after 5 committed records plus a
    // torn partial write of the 6th — the exact on-disk signature of
    // killing the streaming writer.
    std::istringstream stream(runs);
    std::string line;
    std::string partial;
    for (int i = 0; i < 6 && std::getline(stream, line); ++i) {
        partial += line;
        partial += '\n';
    }
    std::getline(stream, line);
    partial += line.substr(0, line.size() / 2); // torn, no newline
    writeFile(dir.path / "partial.jsonl", partial);

    CampaignConfig resume = smokeConfig();
    resume.resumeFrom = (dir.path / "partial.jsonl").string();
    resume.telemetryOut = (dir.path / "resumed").string();
    const CampaignResult result = InjectionCampaign(resume).run();

    // Only the remainder was executed or synthesized from the prune
    // verdicts; the 5 replayed records belong to neither list ...
    EXPECT_EQ(result.records.size() + result.pruned.size(), 12u - 5u);
    // ... but the artifacts equal the uninterrupted run's, byte for
    // byte.
    EXPECT_EQ(readFile(dir.path / "resumed.jsonl"), runs);
    EXPECT_EQ(readFile(dir.path / "resumed.summary.json"), summary);
}

TEST(Resume, ResumesInPlaceOverItsOwnPartial)
{
    TempDir dir;
    CampaignConfig serial = smokeConfig();
    serial.telemetryOut = (dir.path / "serial").string();
    InjectionCampaign(serial).run();
    const std::string runs = readFile(dir.path / "serial.jsonl");

    std::istringstream stream(runs);
    std::string line;
    std::string partial;
    for (int i = 0; i < 4 && std::getline(stream, line); ++i) {
        partial += line;
        partial += '\n';
    }
    writeFile(dir.path / "run.jsonl", partial);

    // --resume run.jsonl --telemetry-out run: finish the same file.
    CampaignConfig resume = smokeConfig();
    resume.resumeFrom = (dir.path / "run.jsonl").string();
    resume.telemetryOut = (dir.path / "run").string();
    InjectionCampaign(resume).run();
    EXPECT_EQ(readFile(dir.path / "run.jsonl"), runs);
}

TEST(Resume, ShardResumeCompletesTheShardStream)
{
    TempDir dir;
    CampaignConfig shard = smokeConfig();
    shard.shard = ShardSpec{1, 2};
    shard.telemetryOut = (dir.path / "s1").string();
    InjectionCampaign(shard).run();
    const std::string runs = readFile(dir.path / "s1.jsonl");

    // Keep header + first two records of the shard stream.
    std::istringstream stream(runs);
    std::string line;
    std::string partial;
    for (int i = 0; i < 3 && std::getline(stream, line); ++i) {
        partial += line;
        partial += '\n';
    }
    writeFile(dir.path / "partial.jsonl", partial);

    CampaignConfig resume = smokeConfig();
    resume.shard = ShardSpec{1, 2};
    resume.resumeFrom = (dir.path / "partial.jsonl").string();
    resume.telemetryOut = (dir.path / "resumed").string();
    InjectionCampaign(resume).run();
    EXPECT_EQ(readFile(dir.path / "resumed.jsonl"), runs);
}

TEST(Resume, RejectsStreamsFromOtherCampaignsOrShards)
{
    TempDir dir;
    CampaignConfig cfg = smokeConfig();
    cfg.telemetryOut = (dir.path / "run").string();
    InjectionCampaign(cfg).run();

    // Different seed: the resume header check must refuse.
    CampaignConfig wrong_seed = smokeConfig();
    wrong_seed.seed = 8;
    wrong_seed.resumeFrom = (dir.path / "run.jsonl").string();
    wrong_seed.telemetryOut = (dir.path / "out").string();
    EXPECT_THROW(InjectionCampaign(wrong_seed).run(),
                 dfi::FatalError);

    // Unsharded stream into a shard run: its completed runIds cover
    // runs outside the shard view.
    CampaignConfig wrong_shard = smokeConfig();
    wrong_shard.shard = ShardSpec{0, 2};
    wrong_shard.resumeFrom = (dir.path / "run.jsonl").string();
    wrong_shard.telemetryOut = (dir.path / "out").string();
    EXPECT_THROW(InjectionCampaign(wrong_shard).run(),
                 dfi::FatalError);

    // Resume without a telemetry output is a config error.
    CampaignConfig no_out = smokeConfig();
    no_out.resumeFrom = (dir.path / "run.jsonl").string();
    EXPECT_FALSE(no_out.validate().empty());
    EXPECT_THROW(InjectionCampaign(no_out).run(), dfi::FatalError);
}

} // namespace
