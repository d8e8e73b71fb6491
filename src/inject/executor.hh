/**
 * @file
 * Campaign task loop (layer 2 of the execution engine).
 *
 * One process-wide pool of at most hardware_concurrency - 1 helper
 * threads, started on first parallel use, runs every batch of
 * independent items: the faulty runs of a campaign, or the cells of a
 * figure bench.  runBatch() runs a batch's items on the calling
 * thread plus up to `width - 1` helpers; helpers take one item at a
 * time from the batches in flight, in turn.  The caller always works
 * on its own batch, so a batch submitted from inside an item (a cell
 * whose campaign submits its runs) cannot deadlock, and width 1 is a
 * plain loop on the caller.
 *
 * runTasks() runs the RunTasks of a CampaignPlan as one batch and
 * returns their TaskResults in plan order, regardless of the order in
 * which tasks actually completed.  That ordering guarantee, plus the
 * immutability of the plan and of the shared simulator checkpoints,
 * is the determinism contract: for a fixed (config, program, seed)
 * every job count produces byte-identical records, masks, and
 * classification counts.
 */

#ifndef DFI_INJECT_EXECUTOR_HH
#define DFI_INJECT_EXECUTOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "inject/plan.hh"
#include "inject/reporting.hh"

namespace dfi::inject
{

/**
 * Executes one task.  Must be safe to call concurrently from several
 * threads (InjectionCampaign::runTask is, once prepared).
 */
using TaskRunner = std::function<TaskResult(const RunTask &)>;

/** One item of a batch, called with its position 0..n-1. */
using BatchItem = std::function<void(std::size_t)>;

/**
 * Resolve a requested job count: 0 becomes the hardware concurrency
 * (at least 1).
 */
std::uint32_t resolveJobs(std::uint32_t requested);

/**
 * The most threads one batch runs on: the caller plus every helper of
 * the pool, i.e. the hardware concurrency (at least 1).
 */
std::uint32_t poolWidth();

/**
 * Run item(0) .. item(n-1), each exactly once, on the calling thread
 * plus up to min(width, poolWidth()) - 1 pool helpers, and return
 * when every claimed item has returned.  `finished(i)`, if given,
 * runs on the calling thread after item(i) returned normally, in
 * completion order.  An exception from either stops further claims;
 * the one of the lowest position is rethrown at the end.
 */
void runBatch(std::size_t n, std::uint32_t width, const BatchItem &item,
              const BatchItem &finished = {});

/**
 * Run every task of `plan` through `runner` as one batch of width
 * resolveJobs(jobs), committing each finished task to `reporter` with
 * its plan position.  Every reporter call runs on the calling thread.
 * A failed task stops further claims; after every claimed task
 * returned, the error of the lowest plan position is rethrown.
 * @return one TaskResult per task, in plan order.
 */
std::vector<TaskResult> runTasks(const CampaignPlan &plan,
                                 std::uint32_t jobs,
                                 const TaskRunner &runner,
                                 CampaignReporter &reporter);

} // namespace dfi::inject

#endif // DFI_INJECT_EXECUTOR_HH
