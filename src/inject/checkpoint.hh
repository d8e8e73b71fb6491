/**
 * @file
 * Checkpoint store: snapshot capture for injection runs.
 *
 * The paper's campaigns only scale because a faulty run restarts from
 * a simulator checkpoint near its injection cycle instead of from
 * reset.  This store captures those snapshots while a golden run
 * plays, by observing the golden core every cycle and snapshotting it
 * at a spacing computed from the run's length before it starts:
 *
 *  - the policy and the core's per-snapshot bound fix a cap on live
 *    snapshots: twice the target, or fewer when a byte budget
 *    (charged at uarch::OooCore::approxStateBytes) cannot afford that
 *    many, down to the base snapshot alone (runs then start from
 *    reset, exactly as with checkpointing disabled);
 *  - the spacing I is the smallest 64 x 2^k for which cap x I covers
 *    the announced run length, and the store captures at every
 *    multiple of I until it holds the cap.  It never drops a
 *    snapshot, so any prefix of the pass is a prefix of the store.  A
 *    store told no length spaces its snapshots 64 cycles apart.
 *    Snapshots past the cap are never taken rather than spilled:
 *    restoring from disk would cost more than re-simulating the
 *    interval.
 *
 * Snapshots are COW-backed OooCore copies (storage/cow_buffer.hh):
 * capturing one copies page tables, not pages, and the store holds
 * them as shared const state that any number of workers may
 * copy-construct private cores from concurrently.  What they keep
 * alive is counted by walking them (heldBytes()): each snapshot's
 * private state, and each page once however many snapshots share it.
 * No snapshot is ever written to or read from bytes.
 *
 * The capture schedule is a pure function of the policy and the
 * golden run — never of wall-clock or thread timing — so campaign
 * results stay bit-identical for every budget and `--jobs` value.
 *
 * A prepared campaign keeps only the base (reset) snapshot of a store
 * with the campaign's policy; a load from the disk spill rebuilds it
 * from the config.  Faulty runs restore from the store a replay of
 * the golden run from that snapshot captures under the same policy
 * and the golden run's length: the first pass after prepare(), the
 * one that also records golden traces
 * (PreparedCampaign::buildTraces()).
 */

#ifndef DFI_INJECT_CHECKPOINT_HH
#define DFI_INJECT_CHECKPOINT_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace dfi::uarch
{
class OooCore;
} // namespace dfi::uarch

namespace dfi::inject
{

/** How checkpoints are captured and bounded. */
struct CheckpointPolicy
{
    /** false = keep only the base (reset) snapshot. */
    bool enabled = true;

    /**
     * Snapshots to aim for beyond the base one; the store holds up to
     * twice as many.
     */
    std::uint32_t targetCount = 64;

    /**
     * Total snapshot memory budget in bytes, charged at the
     * conservative per-snapshot bound; 0 = unlimited.
     */
    std::uint64_t budgetBytes = 0;
};

/** Captures while a golden run plays, serves restores during runs. */
class CheckpointStore
{
  public:
    CheckpointStore() = default;

    /**
     * @param runCycles length of the run the store will observe; 0
     *        (unknown) spaces snapshots 64 cycles apart.
     */
    explicit CheckpointStore(CheckpointPolicy policy,
                             std::uint64_t runCycles = 0);

    /**
     * Capture the base (pre-tick) snapshot and derive the live cap
     * from the policy and the core's state-size bound, then the
     * spacing from the cap and the run length.  Resets any previous
     * capture state.
     */
    void captureBase(const uarch::OooCore &core);

    /**
     * Golden-pass hook: call after every tick of the golden core.
     * Captures at every multiple of the spacing until the store holds
     * its cap.
     */
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

    /** Per-snapshot byte bound used for budget accounting. */
    std::uint64_t snapshotBoundBytes() const { return snapshotBytes_; }

    /** Live snapshots the policy allows (including the base). */
    std::size_t maxLiveSnapshots() const { return maxLive_; }

    /** True when the budget (not targetCount) set the cap. */
    bool budgetLimited() const { return budgetLimited_; }

    /**
     * Bytes the snapshots keep alive: what each owns outright plus
     * every COW page they hold, counted once however many snapshots
     * share it (OooCore::heldBytes over one page set).
     */
    std::uint64_t heldBytes() const;

  private:
    CheckpointPolicy policy_;
    std::uint64_t runCycles_ = 0;
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
