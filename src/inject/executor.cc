#include "inject/executor.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace dfi::inject
{

std::uint32_t
resolveJobs(std::uint32_t requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::vector<TaskResult>
runTasks(const CampaignPlan &plan, std::uint32_t jobs,
         const TaskRunner &runner, CampaignReporter &reporter)
{
    const std::vector<RunTask> &tasks = plan.tasks();
    std::vector<TaskResult> results(tasks.size());
    // One error slot per task: the lowest-position error is rethrown
    // after the join, so failures are as deterministic as the runs.
    std::vector<std::exception_ptr> errors(tasks.size());
    std::atomic<std::size_t> next{0};
    std::atomic<bool> aborted{false};

    auto work = [&] {
        while (!aborted.load(std::memory_order_relaxed)) {
            const std::size_t index =
                next.fetch_add(1, std::memory_order_relaxed);
            if (index >= tasks.size())
                return;
            try {
                results[index] = runner(tasks[index]);
                // The slots are stable storage: the reporter's
                // ordered-commit sink may read them until the join.
                reporter.commit(index, tasks[index], results[index]);
            } catch (...) {
                errors[index] = std::current_exception();
                aborted.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    const std::size_t workers =
        std::min<std::size_t>(resolveJobs(jobs), tasks.size());
    if (workers <= 1) {
        work();
    } else {
        // A jthread joins when destroyed: every worker has returned
        // when this scope ends, also if starting one of them threw.
        std::vector<std::jthread> pool;
        pool.reserve(workers);
        for (std::size_t i = 0; i < workers; ++i)
            pool.emplace_back(work);
    }

    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return results;
}

} // namespace dfi::inject
