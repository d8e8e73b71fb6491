/**
 * @file
 * Campaign reporting layer (layer 3 of the execution engine).
 *
 * The task loop (inject/executor.hh) runs tasks on pool threads, but
 * hands every finished task to the campaign's own calling thread;
 * everything reported from there — user progress callbacks,
 * aggregated common/stats counters, the telemetry stream — funnels
 * through a CampaignReporter.  So a progress callback that blocks
 * (a served request writing to a stalled client) holds up only its
 * own campaign, never a shared helper.  The user-visible sequence of
 * progress callbacks (done, total) is identical for every job count:
 * `done` is the count of finished tasks, which advances 1..total
 * regardless of the order in which the tasks actually finish.
 *
 * The reporter is also the engine's *ordered-commit point*: the task
 * loop hands each finished task to commit() with its position in the
 * plan's task list, and the reporter reorders racing completions
 * behind the position frontier and replays them to the commit sink
 * strictly in plan order.  A shard or resume view executes a
 * non-contiguous runId subset, but its positions are always 0..n-1
 * in ascending runId order.  Consumers attached there
 * (inject/telemetry.hh) therefore observe the exact same sequence for
 * every job count — that is what makes campaign artifacts
 * byte-identical across `--jobs` values.
 *
 * (Log lines from workers need no help from this layer: common/logging
 * emits each line atomically; see logging.cc.)
 */

#ifndef DFI_INJECT_REPORTING_HH
#define DFI_INJECT_REPORTING_HH

#include <cstdint>
#include <functional>
#include <map>

#include "common/stats.hh"

namespace dfi::inject
{

struct RunTask;
struct TaskResult;

/**
 * Funnel for campaign reporting.  Not thread-safe: every call comes
 * from the campaign's calling thread (runTasks guarantees it).
 */
class CampaignReporter
{
  public:
    using Progress = std::function<void(std::uint64_t done,
                                        std::uint64_t total)>;

    /**
     * Ordered-commit consumer: invoked once per task, strictly in
     * plan (ascending-runId) order.  The references are only valid
     * for the duration of the call.
     */
    using CommitSink = std::function<void(const RunTask &task,
                                          const TaskResult &result)>;

    CampaignReporter(Progress progress, std::uint64_t total)
        : progress_(std::move(progress)), total_(total)
    {}

    /** Attach the ordered-commit consumer (before the tasks run). */
    void setCommitSink(CommitSink sink) { sink_ = std::move(sink); }

    /**
     * Record the finished task at `position` in its plan's task list:
     * merges its counters, bumps the done counter, invokes the
     * progress callback, and replays every result at the position
     * frontier to the commit sink in order.  The caller must keep
     * `task` and `result` alive and immutable until the task loop
     * returns (runTasks commits from stable per-position storage, so
     * this holds by construction).
     */
    void commit(std::size_t position, const RunTask &task,
                const TaskResult &result);

    /**
     * Campaign-wide counter aggregate.  Only read this after the task
     * loop returned; counter addition is commutative, so the
     * aggregate is identical for any completion order.
     */
    const dfi::StatSet &aggregateStats() const { return stats_; }

  private:
    Progress progress_;
    CommitSink sink_;
    std::uint64_t total_;
    std::uint64_t done_ = 0;
    dfi::StatSet stats_;

    /** Next position the sink has not seen yet (the commit frontier). */
    std::size_t frontier_ = 0;
    /** Finished tasks still ahead of the frontier, keyed by position. */
    std::map<std::size_t,
             std::pair<const RunTask *, const TaskResult *>>
        pending_;
};

} // namespace dfi::inject

#endif // DFI_INJECT_REPORTING_HH
