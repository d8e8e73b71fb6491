/**
 * @file
 * Checkpoint store: single-pass snapshot capture for injection runs.
 *
 * The paper's campaigns only scale because a faulty run restarts from
 * a simulator checkpoint near its injection cycle instead of from
 * reset.  This store captures those snapshots *during* the golden
 * pass — prepare() performs exactly one full-program simulation — by
 * observing the golden core every cycle and snapshotting it at an
 * adaptive interval:
 *
 *  - capture starts at a small interval (the golden run length is
 *    unknown in advance);
 *  - whenever the live snapshot count exceeds its cap, every other
 *    non-base snapshot is dropped and the interval doubles, so the
 *    store converges on [targetCount, 2 x targetCount) evenly-spaced
 *    snapshots for any run length;
 *  - a byte budget caps the snapshot count via a conservative
 *    per-snapshot bound (uarch::OooCore::approxStateBytes).  When
 *    even two snapshots do not fit — e.g. full-scale L2 data arrays
 *    under a small budget — capture drops down to the base snapshot
 *    alone (runs start from reset, exactly as with checkpointing
 *    disabled).  Snapshots are dropped, never spilled: restoring
 *    from disk would cost more than re-simulating the interval.
 *
 * Snapshots are COW-backed OooCore copies (storage/cow_buffer.hh):
 * capturing one copies page tables, not pages, and the store holds
 * them as shared const state that any number of workers may
 * copy-construct private cores from concurrently.
 *
 * The capture schedule is a pure function of the policy and the
 * golden run — never of wall-clock or thread timing — so campaign
 * results stay bit-identical for every budget and `--jobs` value.
 *
 * A prepared campaign holds two stores with the same policy but for
 * the target count: the coarse one prepare() captures (spilled with
 * the prepared state), and a dense one that faulty runs restore from,
 * replayed on first use (PreparedCampaign::refined()).
 */

#ifndef DFI_INJECT_CHECKPOINT_HH
#define DFI_INJECT_CHECKPOINT_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace dfi::isa
{
struct Image;
} // namespace dfi::isa

namespace dfi::serial
{
class Reader;
class Writer;
} // namespace dfi::serial

namespace dfi::uarch
{
class OooCore;
struct CoreConfig;
} // namespace dfi::uarch

namespace dfi::inject
{

/** How checkpoints are captured and bounded. */
struct CheckpointPolicy
{
    /** false = keep only the base (reset) snapshot. */
    bool enabled = true;

    /** Snapshots to converge on (beyond the base one). */
    std::uint32_t targetCount = 6;

    /**
     * Total snapshot memory budget in bytes, charged at the
     * conservative per-snapshot bound; 0 = unlimited.
     */
    std::uint64_t budgetBytes = 0;

    /** Initial capture spacing in cycles (doubles as needed). */
    std::uint64_t initialInterval = 64;
};

/** Captures during the golden pass, serves restores during runs. */
class CheckpointStore
{
  public:
    CheckpointStore() = default;
    explicit CheckpointStore(CheckpointPolicy policy);

    /**
     * Capture the base (pre-tick) snapshot and derive the live cap
     * from the policy and the core's state-size bound.  Resets any
     * previous capture state.
     */
    void captureBase(const uarch::OooCore &core);

    /** Golden-pass hook: call after every tick of the golden core. */
    void observe(const uarch::OooCore &core);

    /**
     * Snapshot to restore for an injection at `cycle`: the latest
     * snapshot *strictly before* it.  Restoring at the injection
     * cycle itself would apply the flip during the cycle->cycle+1
     * transition instead of cycle-1->cycle, changing outcomes
     * relative to a from-reset run.  The base snapshot (cycle 0) is
     * the floor.
     */
    const uarch::OooCore &sourceFor(std::uint64_t cycle) const;

    /** Index of sourceFor(cycle) within cycles(). */
    std::size_t indexFor(std::uint64_t cycle) const;

    /** Snapshot cycles, ascending; cycles()[0] is always 0. */
    const std::vector<std::uint64_t> &cycles() const { return cycles_; }

    std::size_t count() const { return snapshots_.size(); }

    const CheckpointPolicy &policy() const { return policy_; }

    /** Current capture spacing in cycles. */
    std::uint64_t interval() const { return interval_; }

    /** Per-snapshot byte bound used for budget accounting. */
    std::uint64_t snapshotBoundBytes() const { return snapshotBytes_; }

    /** Live snapshots the policy allows (including the base). */
    std::size_t maxLiveSnapshots() const { return maxLive_; }

    /** True when the budget (not targetCount) set the cap. */
    bool budgetLimited() const { return budgetLimited_; }

    /**
     * Bytes the snapshots keep alive: the saveState() archive size,
     * each COW page counted once however many snapshots share it.
     */
    std::uint64_t heldBytes() const;

    /**
     * Serialize the store (policy echo, schedule, every snapshot) for
     * the service's disk cache.  Snapshot cores are written with COW
     * page interning, so shared pages cost their bytes once.
     */
    void saveState(serial::Writer &writer) const;

    /**
     * Rebuild the store from a stream produced by saveState().  Each
     * snapshot is constructed fresh from (config, image) — the same
     * pair the saved cores were built from — and its dynamic state
     * overwritten.  On failure the reader's ok() turns false and the
     * store is left empty.
     */
    void loadState(serial::Reader &reader, const uarch::CoreConfig &config,
                   const isa::Image &image);

  private:
    void thin();

    CheckpointPolicy policy_;
    std::vector<std::shared_ptr<const uarch::OooCore>> snapshots_;
    std::vector<std::uint64_t> cycles_;
    std::uint64_t interval_ = 0;
    std::uint64_t next_ = 0;
    std::uint64_t snapshotBytes_ = 0;
    std::size_t maxLive_ = 1;
    bool budgetLimited_ = false;
};

} // namespace dfi::inject

#endif // DFI_INJECT_CHECKPOINT_HH
