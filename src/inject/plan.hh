/**
 * @file
 * Campaign planning layer (layer 1 of the execution engine): a staged
 * classification pipeline.
 *
 * Planning resolves everything a campaign needs *before* any faulty
 * simulation happens, in four explicit stages:
 *
 *  1. enumerate — resolve the sampling size and generate the mask
 *     repository (or, with `CampaignConfig::exhaustive`, enumerate
 *     every bit x cycle site of the component);
 *  2. classify — statically decide each single-bit transient site
 *     from the component's golden trace (inject/prune.hh): dead
 *     entries and dead-until-overwrite bits are provably Masked,
 *     never-read bits provably reproduce the golden record;
 *  3. dedupe — collapse sites that provably converge to identical
 *     architectural state (same first covering read of the same bit)
 *     into equivalence classes, keeping one representative each;
 *  4. plan — emit RunTasks for the surviving representatives only.
 *
 * The result is an immutable CampaignPlan: a flat list of independent
 * RunTasks plus the pruned runs with their precomputed outcomes.  A
 * plan is pure data; the task loop (inject/executor.hh) may run its
 * tasks in any order and on any number of workers, and because every
 * task is self-contained the campaign outcome is bit-identical no
 * matter how the tasks are scheduled.  Stages 2-3 only run when the
 * configuration allows them (single-bit transients with both
 * early-stop rules on, and not `--no-prune`); otherwise every run is
 * planned as a task, exactly as before.
 */

#ifndef DFI_INJECT_PLAN_HH
#define DFI_INJECT_PLAN_HH

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "inject/campaign.hh"
#include "inject/prune.hh"
#include "storage/fault.hh"
#include "syskit/run_record.hh"

namespace dfi::uarch
{
class OooCore;
} // namespace dfi::uarch

namespace dfi::inject
{

/**
 * One independent unit of campaign work: all masks of one fault group
 * (they share a runId), simulated as a single faulty run.
 */
struct RunTask
{
    std::uint64_t runId = 0;
    std::vector<dfi::FaultMask> masks;
    std::uint64_t firstCycle = 0; //!< earliest injection cycle
    /**
     * Nonzero when this task is the simulated representative of a
     * fault-equivalence class; its record fans back out to the
     * class's pruned members at reporting time.
     */
    std::uint64_t pruneClass = 0;
};

/**
 * One run the classification pipeline removed from execution.  Its
 * telemetry record is synthesized at reporting time: statically
 * classified runs get the early-stop (or golden) record the
 * dispatcher would have produced, equivalence-class members get their
 * representative's outcome.
 */
struct PrunedRun
{
    std::uint64_t runId = 0;
    SiteVerdict verdict = SiteVerdict::InvalidEntry;
    /** The site's (single) mask, for the telemetry record fields. */
    dfi::FaultMask mask;
    /** Early-stop record fields (InvalidEntry/DeadOverwrite). */
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    /** Representative runId (EquivMember only). */
    std::uint64_t repRunId = ~0ull;
    /** 1-based equivalence-class id shared with the representative. */
    std::uint64_t pruneClass = 0;
};

/**
 * The record a statically classified run stands for: the early-stop
 * record the dispatcher would have produced (InvalidEntry,
 * DeadOverwrite), or the golden record (GoldenRun).  panic() for the
 * verdicts that have none.
 */
syskit::RunRecord staticRecord(const PrunedRun &pruned,
                               const syskit::RunRecord &golden);

/** What executing one RunTask produces. */
struct TaskResult
{
    syskit::RunRecord record;
    std::uint64_t simulatedCycles = 0; //!< post-restore cycles
    /**
     * Host wall-clock spent executing the task, in microseconds.
     * Nondeterministic: telemetry treats it as a volatile field and
     * zeroes it unless timing capture is on.
     */
    std::uint64_t wallMicros = 0;

    /**
     * Host wall-clock spent restoring the starting checkpoint (the
     * COW core copy), in microseconds.  Volatile, like wallMicros.
     */
    std::uint64_t restoreMicros = 0;
};

/**
 * Immutable, fully-resolved execution plan of one campaign.
 *
 * Construction groups the mask repository into per-runId tasks; after
 * that the plan never changes, so concurrent readers need no locking.
 *
 * A plan can also be *viewed*: shardView() and withoutRuns() return
 * plans that execute a subset of the tasks while keeping the full
 * mask repository, seeds, and campaign size (totalRuns()) untouched —
 * the deterministic foundation of `--shard` and `--resume`.  Every
 * run keeps its campaign-wide runId, and every view lists its tasks
 * in ascending runId order.
 */
class CampaignPlan
{
  public:
    /**
     * Build a plan from an already-generated mask repository.
     * `masks` must be grouped by runId with every runId < `num_runs`
     * (the mask generator's output format).
     */
    CampaignPlan(CampaignConfig config, syskit::RunRecord golden,
                 std::vector<dfi::FaultMask> masks,
                 std::uint64_t num_runs);

    const CampaignConfig &config() const { return config_; }
    const syskit::RunRecord &golden() const { return golden_; }
    const std::vector<dfi::FaultMask> &masks() const { return masks_; }
    const std::vector<RunTask> &tasks() const { return tasks_; }
    std::uint64_t numRuns() const { return tasks_.size(); }

    /**
     * The runs this view does not execute, with their precomputed
     * classifications, in ascending runId order.  Empty unless
     * applyPruning() ran.
     */
    const std::vector<PrunedRun> &pruned() const { return pruned_; }

    /**
     * Campaign-wide pruning tallies.  Deliberately *not* view-local:
     * every shard reports the same numbers, so shard telemetry
     * headers stay identical and merge byte-identically.
     */
    const PruneStats &pruneStats() const { return pruneStats_; }

    /**
     * Campaign-wide run count: the size of the original full plan,
     * preserved across views.  Telemetry stamps it into the runs
     * header (`runs_total`) so dfi-merge can prove shard coverage.
     */
    std::uint64_t totalRuns() const { return totalRuns_; }

    /**
     * Apply the classification pipeline's verdicts (stage 4):
     * non-Simulate runs move from the task list into pruned(), and
     * representatives keep their pruneClass.
     * `classifications` must be indexed by runId over the full plan
     * (single-bit campaigns only — one mask per run).  Call at most
     * once, on a full (unviewed) plan.
     */
    void applyPruning(
        const std::vector<SiteClassification> &classifications);

    /**
     * Deterministic shard view: the tasks whose
     * `runId % shard.count == shard.index`, in runId order.  Mask
     * generation and seeds are untouched — shard I of N simulates
     * exactly the runs an unsharded campaign would label
     * i ≡ I (mod N), so N shards partition the campaign.
     *
     * Pruned runs partition the same way, with one twist: an
     * equivalence-class member whose representative falls in a
     * *different* shard is promoted back to a real task (its record
     * is byte-identical to the representative's by construction), so
     * every shard stream is self-contained.
     */
    CampaignPlan shardView(const ShardSpec &shard) const;

    /**
     * Resume view: the tasks whose runId is NOT in `completed`
     * (runIds loaded from a partial telemetry stream; pruned runs
     * appear there too and are dropped the same way).  fatal() if a
     * completed runId names neither a task nor a pruned run of this
     * plan — resuming against the wrong campaign or shard.
     */
    CampaignPlan
    withoutRuns(const std::unordered_set<std::uint64_t> &completed)
        const;

  private:
    CampaignPlan() = default;

    /** Copy of this plan with `tasks_` filtered by `keep(runId)`. */
    CampaignPlan
    filtered(const std::function<bool(std::uint64_t)> &keep) const;

    CampaignConfig config_;
    syskit::RunRecord golden_;
    std::vector<dfi::FaultMask> masks_;
    std::vector<RunTask> tasks_;
    std::vector<PrunedRun> pruned_;
    PruneStats pruneStats_;
    std::uint64_t totalRuns_ = 0;
};

/**
 * Resolve a configuration into a plan by running the pipeline
 * described above.  The `probe` core supplies the component
 * geometries.  The classification stages read `trace`, the golden
 * trace of the config's component; when it is null and the stages are
 * enabled, the probe is ticked through one instrumented golden run to
 * build it, so the probe must be freshly constructed from the
 * campaign's image and configuration.
 */
CampaignPlan planCampaign(const CampaignConfig &config,
                          const syskit::RunRecord &golden,
                          uarch::OooCore &probe,
                          const GoldenTrace *trace = nullptr);

/**
 * True when the configuration admits static classification and
 * equivalence pruning: single-bit transients with both early-stop
 * rules on (the static verdicts replicate the early-stop records
 * byte-for-byte) and pruning not disabled.
 */
bool planPrunes(const CampaignConfig &config);

} // namespace dfi::inject

#endif // DFI_INJECT_PLAN_HH
