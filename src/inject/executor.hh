/**
 * @file
 * Campaign task loop (layer 2 of the execution engine).
 *
 * runTasks() runs the independent RunTasks of a CampaignPlan on
 * `jobs` workers and returns their TaskResults in plan order,
 * regardless of the order in which tasks actually completed.  Workers
 * claim tasks in plan order; with one worker the loop runs on the
 * calling thread, otherwise on that many std::jthreads.  That ordering
 * guarantee, plus the immutability of the plan and of the shared
 * simulator checkpoints, is the determinism contract: for a fixed
 * (config, program, seed) every job count produces byte-identical
 * records, masks, and classification counts.
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

/**
 * Resolve a requested job count: 0 becomes the hardware concurrency
 * (at least 1).
 */
std::uint32_t resolveJobs(std::uint32_t requested);

/**
 * Run every task of `plan` through `runner` on resolveJobs(jobs)
 * workers, committing each finished task to `reporter` with its plan
 * position.  A failed task stops further claims; after every worker
 * returned, the error of the lowest plan position is rethrown.
 * @return one TaskResult per task, in plan order.
 */
std::vector<TaskResult> runTasks(const CampaignPlan &plan,
                                 std::uint32_t jobs,
                                 const TaskRunner &runner,
                                 CampaignReporter &reporter);

} // namespace dfi::inject

#endif // DFI_INJECT_EXECUTOR_HH
