#include "inject/checkpoint.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serial.hh"
#include "uarch/ooo_core.hh"

namespace dfi::inject
{

CheckpointStore::CheckpointStore(CheckpointPolicy policy)
    : policy_(policy)
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
    if (policy_.enabled && policy_.targetCount > 1) {
        // Capture runs ahead of the target so thinning converges on
        // [targetCount, 2 x targetCount) evenly-spaced snapshots.
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
    interval_ = std::max<std::uint64_t>(1, policy_.initialInterval);
    next_ = core.cycle() + interval_;
}

void
CheckpointStore::observe(const uarch::OooCore &core)
{
    if (maxLive_ <= 1 || core.cycle() < next_)
        return;
    snapshots_.push_back(
        std::make_shared<const uarch::OooCore>(core));
    cycles_.push_back(core.cycle());
    next_ += interval_;
    if (snapshots_.size() > maxLive_)
        thin();
}

void
CheckpointStore::thin()
{
    // Drop every other non-base snapshot and double the spacing: the
    // cadence adapts to the (unknown in advance) golden run length
    // while holding at most maxLive_ snapshots at any moment.
    std::size_t keep = 0;
    for (std::size_t i = 0; i < snapshots_.size(); i += 2) {
        snapshots_[keep] = std::move(snapshots_[i]);
        cycles_[keep] = cycles_[i];
        ++keep;
    }
    snapshots_.resize(keep);
    cycles_.resize(keep);
    interval_ *= 2;
    next_ = cycles_.back() + interval_;
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
    serial::Writer counter(serial::Writer::kCountOnly);
    saveState(counter);
    return counter.size();
}

namespace
{
/** Backstop against nonsense snapshot counts in a corrupt stream. */
constexpr std::uint64_t kMaxSnapshotsOnLoad = 4096;
} // namespace

void
CheckpointStore::saveState(serial::Writer &writer) const
{
    serial::value(writer, const_cast<bool &>(policy_.enabled));
    serial::value(writer, const_cast<std::uint32_t &>(policy_.targetCount));
    serial::value(writer, const_cast<std::uint64_t &>(policy_.budgetBytes));
    serial::value(writer,
                  const_cast<std::uint64_t &>(policy_.initialInterval));
    serial::value(writer, const_cast<std::vector<std::uint64_t> &>(cycles_));
    serial::value(writer, const_cast<std::uint64_t &>(interval_));
    serial::value(writer, const_cast<std::uint64_t &>(next_));
    serial::value(writer, const_cast<std::uint64_t &>(snapshotBytes_));
    std::uint64_t max_live = maxLive_;
    serial::value(writer, max_live);
    serial::value(writer, const_cast<bool &>(budgetLimited_));
    std::uint64_t count = snapshots_.size();
    serial::value(writer, count);
    // Writer::kSaving archives never mutate; the const_casts above and
    // below only satisfy the shared save/load signature.
    for (const auto &snapshot : snapshots_)
        const_cast<uarch::OooCore &>(*snapshot).serializeState(writer);
}

void
CheckpointStore::loadState(serial::Reader &reader,
                           const uarch::CoreConfig &config,
                           const isa::Image &image)
{
    snapshots_.clear();
    cycles_.clear();
    serial::value(reader, policy_.enabled);
    serial::value(reader, policy_.targetCount);
    serial::value(reader, policy_.budgetBytes);
    serial::value(reader, policy_.initialInterval);
    serial::value(reader, cycles_);
    serial::value(reader, interval_);
    serial::value(reader, next_);
    serial::value(reader, snapshotBytes_);
    std::uint64_t max_live = 0;
    serial::value(reader, max_live);
    maxLive_ = static_cast<std::size_t>(max_live);
    serial::value(reader, budgetLimited_);
    std::uint64_t count = 0;
    serial::value(reader, count);
    if (!reader.ok())
        return;
    if (count == 0 || count > kMaxSnapshotsOnLoad ||
        count != cycles_.size()) {
        reader.fail("checkpoint store: inconsistent snapshot count");
        cycles_.clear();
        return;
    }
    for (std::uint64_t i = 0; i < count; ++i) {
        if (!reader.ok()) {
            snapshots_.clear();
            cycles_.clear();
            return;
        }
        auto core = std::make_shared<uarch::OooCore>(config, image);
        core->serializeState(reader);
        snapshots_.push_back(std::move(core));
    }
    if (!reader.ok()) {
        snapshots_.clear();
        cycles_.clear();
    }
}

} // namespace dfi::inject
