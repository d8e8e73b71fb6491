#include "inject/reporting.hh"

#include "common/logging.hh"
#include "inject/plan.hh"

namespace dfi::inject
{

void
CampaignReporter::commit(std::size_t position, const RunTask &task,
                         const TaskResult &result)
{
    stats_.merge(result.record.stats);
    ++done_;
    if (progress_)
        progress_(done_, total_);

    if (!sink_)
        return;
    if (position < frontier_ || pending_.count(position) != 0)
        panic("reporter: task %s committed twice", task.runId);
    pending_.emplace(position, std::make_pair(&task, &result));
    // Replay every consecutively-finished task at the frontier, so
    // the sink observes plan order no matter how completions raced.
    for (auto it = pending_.begin();
         it != pending_.end() && it->first == frontier_;
         it = pending_.erase(it), ++frontier_) {
        sink_(*it->second.first, *it->second.second);
    }
}

} // namespace dfi::inject
