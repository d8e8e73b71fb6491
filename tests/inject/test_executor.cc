/**
 * @file
 * Tests for the layered campaign execution engine: the planning
 * layer's task grouping, the shared task pool (nesting, blocked and
 * failing batches, its width), the task loop's runId-ordered result
 * commitment on the calling thread, and the end-to-end determinism
 * contract — a campaign's
 * records, masks, counts, and aggregate statistics are byte-identical
 * for one job and for four on every simulator setup, and reproducible
 * across re-runs with the same seed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "inject/campaign.hh"
#include "inject/executor.hh"
#include "inject/parser.hh"
#include "inject/plan.hh"
#include "inject/reporting.hh"

namespace
{

using namespace dfi;
using namespace dfi::inject;

/** Serialize everything a RunRecord carries, byte for byte. */
std::string
serializeRecord(const syskit::RunRecord &record)
{
    std::ostringstream os;
    os << static_cast<int>(record.term) << '|' << record.exitCode
       << '|' << record.cycles << '|' << record.instructions << '|'
       << record.earlyStopMasked << '|' << record.earlyStopReason
       << '|' << record.detail << '|';
    for (std::uint8_t byte : record.output)
        os << static_cast<int>(byte) << ',';
    os << '|';
    for (const syskit::DueEvent &event : record.dueEvents)
        os << event.kind << '@' << event.pc << ',';
    os << '|' << record.stats.dump();
    return os.str();
}

std::string
serializeRecords(const std::vector<syskit::RunRecord> &records)
{
    std::string all;
    for (const syskit::RunRecord &record : records) {
        all += serializeRecord(record);
        all += '\n';
    }
    return all;
}

std::string
serializeMasks(const std::vector<FaultMask> &masks)
{
    std::string all;
    for (const FaultMask &mask : masks) {
        all += mask.toLine();
        all += '\n';
    }
    return all;
}

CampaignConfig
microConfig(const std::string &core, std::uint32_t jobs)
{
    CampaignConfig cfg;
    cfg.benchmark = "micro";
    cfg.coreName = core;
    cfg.component = "l1d";
    cfg.numInjections = 32;
    cfg.seed = 7;
    cfg.jobs = jobs;
    return cfg;
}

TEST(Plan, GroupsMasksByRunId)
{
    std::vector<FaultMask> masks(6);
    const std::uint64_t run_ids[] = {0, 0, 1, 2, 2, 2};
    const std::uint64_t cycles[] = {30, 10, 5, 9, 2, 40};
    for (std::size_t i = 0; i < masks.size(); ++i) {
        masks[i].runId = run_ids[i];
        masks[i].cycle = cycles[i];
    }

    const CampaignPlan plan(CampaignConfig{}, syskit::RunRecord{},
                            masks, 4);
    ASSERT_EQ(plan.numRuns(), 4u);
    EXPECT_EQ(plan.tasks()[0].masks.size(), 2u);
    EXPECT_EQ(plan.tasks()[0].firstCycle, 10u);
    EXPECT_EQ(plan.tasks()[1].masks.size(), 1u);
    EXPECT_EQ(plan.tasks()[1].firstCycle, 5u);
    EXPECT_EQ(plan.tasks()[2].masks.size(), 3u);
    EXPECT_EQ(plan.tasks()[2].firstCycle, 2u);
    EXPECT_EQ(plan.tasks()[3].masks.size(), 0u);
    EXPECT_EQ(plan.masks().size(), 6u);
    for (std::uint64_t run_id = 0; run_id < 4; ++run_id)
        EXPECT_EQ(plan.tasks()[run_id].runId, run_id);
}

/** A plan of `tasks` one-mask tasks with runIds 0..tasks-1. */
CampaignPlan
syntheticPlan(std::uint64_t tasks)
{
    std::vector<FaultMask> masks(tasks);
    for (std::uint64_t i = 0; i < tasks; ++i)
        masks[i].runId = i;
    return CampaignPlan(CampaignConfig{}, syskit::RunRecord{}, masks,
                        tasks);
}

TEST(Executor, ResolveJobs)
{
    EXPECT_GE(resolveJobs(0), 1u);
    EXPECT_EQ(resolveJobs(1), 1u);
    EXPECT_EQ(resolveJobs(7), 7u);
}

TEST(Executor, OneJobRunsOnTheCallingThread)
{
    // One job, and four jobs on a one-task plan: no worker thread.
    for (const auto &[jobs, tasks] :
         {std::pair<std::uint32_t, std::uint64_t>{1, 8}, {4, 1}}) {
        const CampaignPlan plan = syntheticPlan(tasks);
        const std::thread::id caller = std::this_thread::get_id();
        std::vector<std::uint64_t> order;
        const TaskRunner runner = [&](const RunTask &task) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(task.runId);
            return TaskResult{};
        };
        CampaignReporter reporter({}, tasks);
        EXPECT_EQ(runTasks(plan, jobs, runner, reporter).size(), tasks);
        ASSERT_EQ(order.size(), tasks) << jobs << " jobs";
        for (std::uint64_t i = 0; i < tasks; ++i)
            EXPECT_EQ(order[i], i);
    }
}

TEST(Executor, ThreadPoolCommitsResultsInRunIdOrder)
{
    // 24 synthetic tasks of a shard view (odd runIds only) finishing
    // in roughly reverse order: the results and the commit sink must
    // still come in runId order.
    constexpr std::uint64_t kTasks = 24;
    const CampaignPlan plan =
        syntheticPlan(2 * kTasks).shardView(ShardSpec{1, 2});
    ASSERT_EQ(plan.numRuns(), kTasks);

    const TaskRunner runner = [](const RunTask &task) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            100 * (2 * kTasks - task.runId)));
        TaskResult result;
        result.record.cycles = 1000 + task.runId;
        result.record.stats.inc("runs");
        result.simulatedCycles = task.runId;
        return result;
    };

    std::vector<std::pair<std::uint64_t, std::uint64_t>> progress;
    CampaignReporter reporter(
        [&progress](std::uint64_t done, std::uint64_t total) {
            progress.emplace_back(done, total);
        },
        kTasks);
    std::vector<std::uint64_t> committed;
    reporter.setCommitSink(
        [&committed](const RunTask &task, const TaskResult &result) {
            EXPECT_EQ(result.record.cycles, 1000 + task.runId);
            committed.push_back(task.runId);
        });

    const auto results = runTasks(plan, 4, runner, reporter);

    ASSERT_EQ(results.size(), kTasks);
    ASSERT_EQ(committed.size(), kTasks);
    for (std::uint64_t i = 0; i < kTasks; ++i) {
        EXPECT_EQ(results[i].record.cycles, 1000 + 2 * i + 1);
        EXPECT_EQ(results[i].simulatedCycles, 2 * i + 1);
        EXPECT_EQ(committed[i], 2 * i + 1);
    }
    // Progress callbacks are serialised and strictly increasing even
    // though completions raced.
    ASSERT_EQ(progress.size(), kTasks);
    for (std::uint64_t i = 0; i < kTasks; ++i) {
        EXPECT_EQ(progress[i].first, i + 1);
        EXPECT_EQ(progress[i].second, kTasks);
    }
    EXPECT_EQ(reporter.aggregateStats().get("runs"), kTasks);
}

TEST(Executor, ThreadPoolPropagatesTaskErrors)
{
    // Two failing tasks: the lowest plan position's error wins.
    const CampaignPlan plan = syntheticPlan(8);
    const TaskRunner runner = [](const RunTask &task) -> TaskResult {
        if (task.runId == 3 || task.runId == 5)
            fatal("task %s failed", task.runId);
        return {};
    };
    for (const std::uint32_t jobs : {1u, 4u}) {
        CampaignReporter reporter({}, plan.numRuns());
        try {
            runTasks(plan, jobs, runner, reporter);
            ADD_FAILURE() << "no error with " << jobs << " jobs";
        } catch (const FatalError &error) {
            EXPECT_NE(std::string(error.what()).find("task 3 failed"),
                      std::string::npos)
                << error.what();
        }
    }
}

TEST(Executor, NestedBatchesFinishAtWidthTwo)
{
    // Every item of a batch as wide as the pool submits a batch of
    // width 2.  Each submitter works on its own batch, so none waits
    // for a helper that the busy pool cannot give.
    const std::size_t width = poolWidth();
    std::atomic<std::size_t> ran{0};
    runBatch(2 * width, static_cast<std::uint32_t>(width),
             [&ran](std::size_t) {
                 runBatch(3, 2, [&ran](std::size_t) {
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(1));
                     ++ran;
                 });
             });
    EXPECT_EQ(ran.load(), 6 * width);
}

TEST(Executor, ABlockedBatchDoesNotStopAnotherBatch)
{
    // One item per pool thread, each parked on a latch: the second
    // batch still finishes, on its caller alone.
    const std::size_t width = poolWidth();
    std::latch release(1);
    std::atomic<std::size_t> parked{0};
    std::thread blocked([&] {
        runBatch(width, width, [&](std::size_t) {
            ++parked;
            release.wait();
        });
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (parked.load() < width &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::size_t parked_first = parked.load();

    std::vector<std::size_t> squares(8);
    runBatch(squares.size(), width,
             [&squares](std::size_t i) { squares[i] = i * i; });
    release.count_down();
    blocked.join();

    EXPECT_EQ(parked_first, width);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(Executor, AnErrorLeavesAConcurrentBatchIntact)
{
    constexpr std::size_t kItems = 16;
    std::string failed;
    std::thread failing([&failed] {
        try {
            runBatch(kItems, poolWidth(), [](std::size_t i) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
                if (i == 5 || i == 9)
                    fatal("item %s failed", i);
            });
        } catch (const FatalError &error) {
            failed = error.what();
        }
    });
    std::vector<std::size_t> values(kItems);
    std::vector<std::size_t> finished;
    runBatch(
        kItems, poolWidth(),
        [&values](std::size_t i) {
            std::this_thread::sleep_for(std::chrono::microseconds(300));
            values[i] = 100 + i;
        },
        [&finished](std::size_t i) { finished.push_back(i); });
    failing.join();

    EXPECT_NE(failed.find("item 5 failed"), std::string::npos)
        << failed;
    ASSERT_EQ(finished.size(), kItems);
    std::sort(finished.begin(), finished.end());
    for (std::size_t i = 0; i < kItems; ++i) {
        EXPECT_EQ(values[i], 100 + i);
        EXPECT_EQ(finished[i], i);
    }
}

TEST(Executor, ReporterCallsRunOnTheCallingThread)
{
    constexpr std::uint64_t kTasks = 16;
    const CampaignPlan plan = syntheticPlan(kTasks);
    const std::thread::id caller = std::this_thread::get_id();
    const TaskRunner runner = [](const RunTask &task) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(100 * (kTasks - task.runId)));
        return TaskResult{};
    };
    std::uint64_t progressed = 0;
    std::uint64_t committed = 0;
    CampaignReporter reporter(
        [&](std::uint64_t, std::uint64_t) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            ++progressed;
        },
        kTasks);
    reporter.setCommitSink([&](const RunTask &, const TaskResult &) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++committed;
    });
    runTasks(plan, 4, runner, reporter);
    EXPECT_EQ(progressed, kTasks);
    EXPECT_EQ(committed, kTasks);
}

TEST(Executor, JobsAboveThePoolWidthUseAtMostTheHardwareThreads)
{
    // Eight tasks: even a loop that started one thread per job would
    // start only eight.
    const CampaignPlan plan = syntheticPlan(8);
    std::mutex mutex;
    std::set<std::thread::id> threads;
    const TaskRunner runner = [&](const RunTask &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::lock_guard<std::mutex> lock(mutex);
        threads.insert(std::this_thread::get_id());
        return TaskResult{};
    };
    CampaignReporter reporter({}, plan.numRuns());
    EXPECT_EQ(runTasks(plan, 64, runner, reporter).size(), 8u);
    const unsigned hw = std::thread::hardware_concurrency();
    EXPECT_LE(threads.size(), std::max(1u, hw));
    EXPECT_LE(threads.size(), poolWidth());
}

/**
 * Campaigns run as the items of one batch, each fanning its runs out
 * over the same pool, produce the artifacts of their serial runs.
 */
TEST(Executor, CampaignsInOneBatchMatchTheirSerialRuns)
{
    const std::vector<std::string> cores = {"marss-x86", "gem5-x86",
                                            "gem5-arm"};
    auto run = [&cores](std::size_t i, std::uint32_t jobs) {
        CampaignConfig cfg = microConfig(cores[i], jobs);
        cfg.telemetryCapture = true;
        return InjectionCampaign(cfg).run();
    };
    std::vector<CampaignResult> batched(cores.size());
    runBatch(cores.size(), 4, [&](std::size_t i) {
        batched[i] = run(i, 4);
    });
    for (std::size_t i = 0; i < cores.size(); ++i) {
        const CampaignResult serial = run(i, 1);
        EXPECT_EQ(serializeRecords(batched[i].records),
                  serializeRecords(serial.records))
            << cores[i];
        EXPECT_EQ(serializeMasks(batched[i].masks),
                  serializeMasks(serial.masks))
            << cores[i];
        EXPECT_FALSE(serial.telemetryRuns.empty());
        EXPECT_EQ(batched[i].telemetryRuns, serial.telemetryRuns)
            << cores[i];
        EXPECT_EQ(batched[i].telemetrySummary, serial.telemetrySummary)
            << cores[i];
    }
}

/**
 * The acceptance contract: on every simulator setup, a >=32-run
 * campaign yields byte-identical RunRecord sequences, masks, and
 * ClassCounts for one job and for four, and re-running with the same
 * seed reproduces both.
 */
class ExecutorDeterminism
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(ExecutorDeterminism, ParallelBitIdenticalToSerial)
{
    const std::string core = GetParam();
    Parser parser;

    auto run_with_jobs = [&core](std::uint32_t jobs) {
        InjectionCampaign campaign(microConfig(core, jobs));
        return campaign.run();
    };

    const CampaignResult serial = run_with_jobs(1);
    const CampaignResult parallel = run_with_jobs(4);
    const CampaignResult parallel_again = run_with_jobs(4);

    // With pruning, executed records plus pruned outcomes cover the
    // whole campaign; the split itself must also be deterministic.
    ASSERT_EQ(serial.records.size() + serial.pruned.size(), 32u);
    ASSERT_EQ(parallel.records.size() + parallel.pruned.size(), 32u);
    ASSERT_EQ(serial.records.size(), parallel.records.size());

    // Byte-identical record sequences and mask repositories.
    EXPECT_EQ(serializeRecords(serial.records),
              serializeRecords(parallel.records));
    EXPECT_EQ(serializeMasks(serial.masks),
              serializeMasks(parallel.masks));

    // Identical classification, cycle accounting, and aggregates.
    EXPECT_EQ(serial.classify(parser).counts,
              parallel.classify(parser).counts);
    EXPECT_EQ(serial.simulatedFaultyCycles,
              parallel.simulatedFaultyCycles);
    EXPECT_EQ(serial.fullRunEquivalentCycles,
              parallel.fullRunEquivalentCycles);
    EXPECT_EQ(serial.aggregateStats.dump(),
              parallel.aggregateStats.dump());

    // Same seed, same everything on a re-run.
    EXPECT_EQ(serializeRecords(parallel.records),
              serializeRecords(parallel_again.records));
    EXPECT_EQ(serializeMasks(parallel.masks),
              serializeMasks(parallel_again.masks));
    EXPECT_EQ(parallel.classify(parser).counts,
              parallel_again.classify(parser).counts);
}

INSTANTIATE_TEST_SUITE_P(AllSetups, ExecutorDeterminism,
                         ::testing::Values("marss-x86", "gem5-x86",
                                           "gem5-arm"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return name;
                         });

} // namespace
