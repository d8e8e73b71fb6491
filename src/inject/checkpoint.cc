#include "inject/checkpoint.hh"

#include <algorithm>
#include <unordered_set>

#include "common/logging.hh"
#include "uarch/ooo_core.hh"

namespace dfi::inject
{

CheckpointStore::CheckpointStore(CheckpointPolicy policy,
                                 std::uint64_t runCycles)
    : policy_(policy), runCycles_(runCycles)
{
}

void
CheckpointStore::captureBase(const uarch::OooCore &core)
{
    snapshots_.clear();
    cycles_.clear();
    snapshots_.push_back(
        std::make_shared<const uarch::OooCore>(core));
    cycles_.push_back(core.cycle());

    snapshotBytes_ = core.approxStateBytes();
    maxLive_ = 1;
    budgetLimited_ = false;
    if (policy_.enabled && policy_.targetCount > 0) {
        maxLive_ = static_cast<std::size_t>(policy_.targetCount) * 2;
        if (policy_.budgetBytes > 0 && snapshotBytes_ > 0) {
            const std::uint64_t affordable =
                policy_.budgetBytes / snapshotBytes_;
            if (affordable < maxLive_) {
                // Drop policy: snapshots beyond the budget are never
                // taken (down to the base one alone) rather than
                // spilled — re-simulating an interval is cheaper than
                // restoring from disk.
                budgetLimited_ = true;
                maxLive_ = static_cast<std::size_t>(
                    std::max<std::uint64_t>(1, affordable));
            }
        }
    }
    // The densest spacing of 64 x 2^k cycles at which the cap covers
    // the whole run, so the store never has to drop a snapshot.
    interval_ = 64;
    while (maxLive_ * interval_ < runCycles_)
        interval_ *= 2;
    next_ = core.cycle() + interval_;
}

void
CheckpointStore::observe(const uarch::OooCore &core)
{
    if (snapshots_.size() >= maxLive_ || core.cycle() < next_)
        return;
    snapshots_.push_back(
        std::make_shared<const uarch::OooCore>(core));
    cycles_.push_back(core.cycle());
    next_ += interval_;
}

std::size_t
CheckpointStore::indexFor(std::uint64_t cycle) const
{
    // Latest snapshot strictly before `cycle`: the base snapshot is
    // cycle 0, so the element preceding the lower bound is the answer
    // (or the base when none is earlier).
    const auto it =
        std::lower_bound(cycles_.begin(), cycles_.end(), cycle);
    return it == cycles_.begin()
               ? 0
               : static_cast<std::size_t>(it - cycles_.begin()) - 1;
}

const uarch::OooCore &
CheckpointStore::sourceFor(std::uint64_t cycle) const
{
    if (snapshots_.empty())
        panic("CheckpointStore: sourceFor before captureBase");
    return *snapshots_[indexFor(cycle)];
}

std::uint64_t
CheckpointStore::heldBytes() const
{
    std::unordered_set<const void *> pages;
    std::uint64_t held = 0;
    for (const auto &snapshot : snapshots_)
        held += snapshot->heldBytes(pages);
    return held;
}

} // namespace dfi::inject
