#include "inject/executor.hh"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

namespace dfi::inject
{

namespace
{

/**
 * One batch in flight.  It lives on its caller's stack, and the
 * caller returns only once no helper holds one of its items.
 */
struct Batch
{
    const BatchItem &item;
    std::size_t size;
    /** Helpers that may run its items at once: width - 1. */
    std::size_t helperSlots;
    /** First item nobody has claimed. */
    std::size_t next = 0;
    /** Helpers running one of its items now. */
    std::size_t helping = 0;
    /** Items helpers finished that the caller has not reported. */
    std::vector<std::size_t> finished;
    /** Lowest failed position so far (`size` while none failed). */
    std::size_t errorAt;
    std::exception_ptr error;
    /** The caller waits here for its helpers' items. */
    std::condition_variable wake;

    Batch(const BatchItem &item, std::size_t size, std::size_t width)
        : item(item), size(size), helperSlots(width - 1), errorAt(size)
    {
        // Room for every item: a helper's push_back never allocates.
        finished.reserve(size);
    }
};

class Pool
{
  public:
    static Pool &
    instance()
    {
        static Pool pool;
        return pool;
    }

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        work_.notify_all();
        // helpers_ is the last member: its jthreads join first.
    }

    std::uint32_t width() const { return width_; }

    void
    run(std::size_t n, std::uint32_t width, const BatchItem &item,
        const BatchItem &finished)
    {
        const std::size_t lanes =
            std::min<std::size_t>(std::min(width, width_), n);
        if (lanes <= 1) {
            for (std::size_t i = 0; i < n; ++i) {
                item(i);
                if (finished)
                    finished(i);
            }
            return;
        }

        Batch batch(item, n, lanes);
        std::vector<std::size_t> done;
        done.reserve(n);
        std::unique_lock<std::mutex> lock(mutex_);
        if (helpers_.empty()) {
            for (std::uint32_t i = 1; i < width_; ++i)
                helpers_.emplace_back([this] { help(); });
        }
        open_.push_back(&batch);
        for (std::size_t i = 0; i < batch.helperSlots; ++i)
            work_.notify_one();

        for (;;) {
            done.assign(batch.finished.begin(), batch.finished.end());
            batch.finished.clear();
            std::size_t mine = n;
            if (done.empty()) {
                if (batch.next < n) {
                    mine = lockedClaim(batch);
                } else if (batch.helping == 0) {
                    break;
                } else {
                    batch.wake.wait(lock);
                    continue;
                }
            }
            lock.unlock();
            std::exception_ptr error;
            std::size_t error_at = n;
            auto attempt = [&](std::size_t index, const BatchItem &call) {
                try {
                    call(index);
                    return true;
                } catch (...) {
                    if (index < error_at) {
                        error_at = index;
                        error = std::current_exception();
                    }
                    return false;
                }
            };
            // Report the helpers' items first, then run one of ours.
            for (const std::size_t index : done) {
                if (finished)
                    attempt(index, finished);
            }
            if (mine < n && attempt(mine, item) && finished)
                attempt(mine, finished);
            lock.lock();
            if (error)
                lockedFail(batch, error_at, error);
        }
        lockedClose(batch);
        lock.unlock();
        if (batch.error)
            std::rethrow_exception(batch.error);
    }

  private:
    Pool() = default;

    /** Claim the next item of `batch`; closes it after the last. */
    std::size_t
    lockedClaim(Batch &batch)
    {
        const std::size_t index = batch.next++;
        if (batch.next == batch.size)
            lockedClose(batch);
        return index;
    }

    /** Take `batch` off the helpers' rotation. */
    void
    lockedClose(Batch &batch)
    {
        const auto it = std::find(open_.begin(), open_.end(), &batch);
        if (it != open_.end())
            open_.erase(it);
    }

    /** Record a failure at `index` and stop further claims. */
    void
    lockedFail(Batch &batch, std::size_t index, std::exception_ptr error)
    {
        if (index < batch.errorAt) {
            batch.errorAt = index;
            batch.error = std::move(error);
        }
        batch.next = batch.size;
        lockedClose(batch);
    }

    /** The next open batch, in turn, with a free helper slot. */
    Batch *
    lockedNextBatch()
    {
        for (std::size_t k = 0; k < open_.size(); ++k) {
            const std::size_t at = (turn_ + k) % open_.size();
            if (open_[at]->helping < open_[at]->helperSlots) {
                turn_ = at + 1;
                return open_[at];
            }
        }
        return nullptr;
    }

    void
    help()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            Batch *batch = nullptr;
            work_.wait(lock, [&] {
                batch = lockedNextBatch();
                return batch != nullptr || stopping_;
            });
            if (batch == nullptr)
                return;
            const std::size_t index = lockedClaim(*batch);
            ++batch->helping;
            lock.unlock();
            std::exception_ptr error;
            try {
                batch->item(index);
            } catch (...) {
                error = std::current_exception();
            }
            lock.lock();
            --batch->helping;
            if (error)
                lockedFail(*batch, index, error);
            else
                batch->finished.push_back(index);
            // Under the lock: the caller may return, and its batch
            // go, as soon as this helper lets go of it.
            batch->wake.notify_one();
        }
    }

    const std::uint32_t width_ =
        std::max(1u, std::thread::hardware_concurrency());
    std::mutex mutex_;
    /** Helpers wait here for a batch with an item to claim. */
    std::condition_variable work_;
    /** Batches with unclaimed items, in submission order. */
    std::vector<Batch *> open_;
    /** Where the next helper starts looking in open_. */
    std::size_t turn_ = 0;
    bool stopping_ = false;
    std::vector<std::jthread> helpers_;
};

} // namespace

std::uint32_t
resolveJobs(std::uint32_t requested)
{
    return requested != 0 ? requested : poolWidth();
}

std::uint32_t
poolWidth()
{
    return Pool::instance().width();
}

void
runBatch(std::size_t n, std::uint32_t width, const BatchItem &item,
         const BatchItem &finished)
{
    Pool::instance().run(n, width, item, finished);
}

std::vector<TaskResult>
runTasks(const CampaignPlan &plan, std::uint32_t jobs,
         const TaskRunner &runner, CampaignReporter &reporter)
{
    const std::vector<RunTask> &tasks = plan.tasks();
    std::vector<TaskResult> results(tasks.size());
    // The slots are stable storage: the reporter's ordered-commit
    // sink may read them until runBatch returns.
    runBatch(
        tasks.size(), resolveJobs(jobs),
        [&](std::size_t index) { results[index] = runner(tasks[index]); },
        [&](std::size_t index) {
            reporter.commit(index, tasks[index], results[index]);
        });
    return results;
}

} // namespace dfi::inject
