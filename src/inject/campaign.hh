/**
 * @file
 * Injection Campaign Controller and Injector Dispatcher (module 2 of
 * Fig. 1).
 *
 * The controller owns a complete campaign: it runs the golden
 * (fault-free) reference — capturing interval checkpoints of the
 * simulator during that same single pass (the paper's use of the
 * simulators' checkpointing to speed up campaigns; see
 * inject/checkpoint.hh) — asks the Fault Mask Generator for masks,
 * and drives one
 * faulty run per mask group through the dispatcher, which applies the
 * masks to the core's storage arrays and implements the two
 * early-stop optimizations of Section III.B:
 *
 *  (i)  a fault injected into an invalid/unused entry ends the run
 *       immediately as Masked;
 *  (ii) a faulted bit that is overwritten before ever being read ends
 *       the run as Masked.
 *
 * Every faulty run is bounded by `timeoutFactor x golden cycles`
 * (3x in the paper's experiments).
 *
 * Execution is layered (the paper parallelized its campaigns across
 * ~10 workstations; we parallelize across threads):
 *  - planning  (inject/plan.hh)      resolves config + golden run +
 *    sampling + masks into an immutable CampaignPlan of RunTasks;
 *  - executor  (inject/executor.hh)  schedules the tasks serially or
 *    on a thread pool (CampaignConfig::jobs), committing results in
 *    runId order so the output is bit-identical either way;
 *  - reporting (inject/reporting.hh) serialises progress callbacks
 *    and stats aggregation from the workers.
 */

#ifndef DFI_INJECT_CAMPAIGN_HH
#define DFI_INJECT_CAMPAIGN_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "inject/checkpoint.hh"
#include "inject/mask_gen.hh"
#include "inject/prune.hh"
#include "uarch/core_config.hh"
#include "inject/parser.hh"
#include "storage/fault_domain.hh"
#include "syskit/run_record.hh"
#include "uarch/ooo_core.hh"

namespace dfi::cli
{
class FlagSet;
} // namespace dfi::cli

namespace dfi::inject
{

/**
 * Deterministic campaign shard selector: shard `index` of `count`
 * executes the runs whose `runId % count == index`.  Mask generation,
 * sampling, and seeds are untouched, so N shards partition the exact
 * run set of an unsharded campaign and `dfi-merge` can recombine
 * their telemetry byte-identically.  {0, 1} (the default) is the
 * whole campaign.
 */
struct ShardSpec
{
    std::uint32_t index = 0;
    std::uint32_t count = 1;
};

/**
 * One structured configuration diagnostic from
 * CampaignConfig::validate(): the offending field and what is wrong
 * with it.  Tools print these uniformly as "field: message".
 */
struct ConfigError
{
    std::string field;
    std::string message;
};

/** Full campaign parameters. */
struct CampaignConfig
{
    std::string component = "int_regfile";
    std::string benchmark = "sha";
    std::uint32_t scale = 1;
    std::string coreName = "marss-x86";

    /**
     * Number of injection runs; 0 derives it from the statistical
     * sampling parameters below.
     */
    std::uint64_t numInjections = 0;
    double confidence = 0.99;
    double margin = 0.03;

    dfi::FaultType faultType = dfi::FaultType::Transient;
    Population population = Population::SingleBit;
    std::uint64_t intermittentMin = 50, intermittentMax = 500;

    /**
     * Enumerate every bit x cycle site of the component instead of
     * sampling (CLI `--exhaustive`).  Single-bit transients only,
     * and numInjections must stay 0 (the space defines the count).
     */
    bool exhaustive = false;

    /**
     * Run the planning-time classification pipeline (inject/plan.hh
     * stages 2-4): statically prune provably-masked sites and
     * simulate one representative per fault-equivalence class.  On
     * by default; CLI `--no-prune` disables it.  A pure
     * execution-strategy knob: pruned and unpruned campaigns
     * classify every run identically (DESIGN.md section 10).
     */
    bool prune = true;

    /**
     * Proportional cache-capacity scale (see uarch::scaleCaches).
     * The default 1/16 keeps cache occupancy representative of the
     * paper's testbed at this repository's scaled-down workload
     * footprints; set 1.0 for the full Table II capacities.
     */
    double cacheScale = 0.0625;

    double timeoutFactor = 3.0;
    bool earlyStopInvalidEntry = true;
    bool earlyStopOverwrite = true;
    bool useCheckpoints = true;
    std::uint32_t checkpointCount = 6;

    /**
     * Checkpoint memory budget in MiB (0 = unlimited).  Snapshots
     * are charged at a conservative per-snapshot bound
     * (uarch::OooCore::approxStateBytes); when the budget affords
     * fewer than the capture cadence wants, the spacing widens, and
     * when even two snapshots do not fit — e.g. full-scale L2 data
     * arrays under a small budget — capture drops to the base
     * snapshot alone.  See inject/checkpoint.hh.
     */
    std::uint64_t checkpointMemBudgetMB = 256;

    std::uint64_t seed = 0x5eed;

    /**
     * Worker threads driving the faulty runs: 1 = serial (the
     * default), 0 = hardware concurrency, N = that many threads.
     * The campaign outcome is bit-identical for every value.
     */
    std::uint32_t jobs = 1;

    /**
     * Optional hook applied to the resolved CoreConfig (after cache
     * scaling).  Used by ablation studies to toggle individual model
     * policies (aggressive load issue, hypervisor, assert density,
     * ...) while keeping everything else fixed.
     */
    std::function<void(uarch::CoreConfig &)> configTweak;

    /**
     * Base path for the telemetry artifacts (inject/telemetry.hh):
     * non-empty writes `<base>.jsonl` + `<base>.summary.json` at the
     * end of run().  Empty (the default) disables telemetry.
     */
    std::string telemetryOut;

    /**
     * Record real wall-clock micros and the executor job count in
     * the telemetry.  Off by default so the artifacts stay
     * byte-identical across hosts and `--jobs` values.
     */
    bool telemetryTiming = false;

    /**
     * Which shard of the campaign this process executes (CLI
     * `--shard I/N`).  A pure execution-strategy knob: it selects
     * runs, never changes them, and is deliberately absent from the
     * telemetry config echo so shard artifacts merge byte-identically
     * into the unsharded stream.
     */
    ShardSpec shard;

    /**
     * Path of a partial telemetry run stream (CLI `--resume FILE`):
     * its completed runs are replayed into the new artifacts verbatim
     * and skipped by the executor, so a killed campaign finishes for
     * the cost of the remainder.  The stream's header must echo this
     * exact campaign (config, golden reference, run count); a torn
     * final line — the usual signature of a killed run — is dropped
     * with a warning.  Requires telemetryOut.  Empty (the default)
     * disables resuming.
     */
    std::string resumeFrom;

    /**
     * Build the telemetry artifacts in memory and return them in
     * CampaignResult::telemetryRuns/telemetrySummary even when
     * telemetryOut is empty (no files touched).  The campaign
     * service uses this to ship artifacts over a socket; the client
     * writes the identical bytes a local `dfi-campaign
     * --telemetry-out` run would have produced.
     */
    bool telemetryCapture = false;

    /**
     * Identity of this campaign's response, for the service's
     * response memo (with `prune` folded in by the service): a
     * stable FNV-1a digest (16 hex digits) of every outcome-relevant
     * field — exactly the telemetry config echo (program, core
     * model, fault selection, seed, ...) — plus the checkpoint
     * knobs.  Pure execution/reporting knobs (jobs, telemetry paths,
     * shard, resume, prune) are excluded.  It is not the key of the
     * prepared state: that is prepKey(), which many campaigns share.
     * Stable across processes and hosts; `configTweak` is not
     * hashable and must be unset when keys are compared.
     */
    std::string cacheKey() const;

    /**
     * Identity of this campaign's prepared state (PreparedCampaign):
     * a stable FNV-1a digest of exactly the fields prepare() reads —
     * benchmark, scale, core model, cache scale and the checkpoint
     * knobs.  Fault selection, sampling and seed are excluded, so
     * every campaign on one program shares one key and one golden
     * pass.  The service keys its memory LRU, single-flight map and
     * disk spill by it.  Like cacheKey(), blind to `configTweak`.
     */
    std::string prepKey() const;

    /**
     * Check every field against its domain (known core/benchmark/
     * component names, probability ranges, shard bounds, flag
     * interactions).  Returns one structured error per violation;
     * empty means the config is runnable.  InjectionCampaign fatal()s
     * on the first invalid config instead of re-checking piecemeal.
     */
    std::vector<ConfigError> validate() const;
};

/**
 * Register the campaign flags dfi-campaign and dfi-serve share, each
 * bound straight to its field of `cfg`, which must outlive `flags`.
 * The `--jobs` help states `cfg.jobs` as the default, so set the
 * tool's default first.  A tool may reopen a section afterwards.
 */
void bindCampaignFlags(cli::FlagSet &flags, CampaignConfig &cfg);

/**
 * The immutable artifacts of a campaign's preparation pass: the
 * compiled program image, the golden (fault-free) reference run, and
 * the checkpoint store captured during that same single pass.  They
 * are a pure function of (benchmark, scale, core model, cache scale,
 * checkpoint knobs) — none of the fault-selection fields — so any
 * number of campaigns whose CampaignConfig::prepKey() matches may
 * share one instance: every consumer only ever copy-constructs
 * private cores from the const checkpoint snapshots, which is
 * already the executor's thread-safety contract.
 *
 * The golden traces that classification reads (inject/prune.hh) and
 * the dense checkpoint store that faulty runs restore from are a pure
 * function of the same state, so the prepared state memoizes them
 * (trace(), refined()) and stays a shareable value.
 */
struct PreparedCampaign
{
    isa::Image image;
    std::vector<std::uint8_t> expectedOutput;
    syskit::RunRecord golden;

    /**
     * The snapshots prepare() captures during the golden pass, at the
     * `--checkpoints` target.  They seed refined() and the disk spill.
     */
    CheckpointStore checkpoints;

    /**
     * The dense checkpoint store faulty runs restore from: the coarse
     * store's policy (budget included) at a target of at least 64
     * snapshots, captured by replaying the golden run from a copy of
     * the base snapshot.  Built on first use, single-flight
     * like trace(); never serialized.  A policy that affords only the
     * base snapshot (checkpoints off, or a budget below two
     * snapshots) skips the replay.
     */
    std::shared_ptr<const CheckpointStore> refined() const;

    /** Dense stores built so far (failed builds not counted). */
    std::uint64_t refines() const;

    /** Bytes the dense store keeps alive (CheckpointStore::heldBytes). */
    std::uint64_t refinedBytes() const;

    /**
     * The golden trace of `component`, built on first use from a copy
     * of the base checkpoint — a reset core with the golden pass's
     * exact CoreConfig, configTweak included.  Single-flight per
     * component: concurrent callers for one component wait for one
     * build, other components build in parallel, and a failed build
     * (fatal, bad_alloc) leaves the slot empty for the next caller.
     * The traces of one prepared state share one committed-
     * instructions table.  Traces are never serialized: a loaded
     * state rebuilds them on demand.
     */
    std::shared_ptr<const GoldenTrace>
    trace(const std::string &component) const;

    /** Traces built so far (failed builds not counted). */
    std::uint64_t traceBuilds() const;

    /** Bytes held by the traces built so far. */
    std::uint64_t traceBytes() const;

    /**
     * Resident-footprint estimate in bytes (the service's LRU budget
     * accounting), traces and dense store included.  The coarse
     * snapshots are charged at the per-snapshot bound even though COW
     * sharing usually keeps the true footprint lower; the dense store
     * at the bytes it holds.  Takes the memo's lock, so a caller may
     * hold its own lock around it as long as no build ever waits on
     * that lock.
     */
    std::uint64_t approxBytes() const;

  private:
    struct TraceSlot
    {
        bool building = false;
        std::shared_ptr<const GoldenTrace> trace;
    };
    /** The memo of traces and dense store: mutable cache state beside
     *  the immutable artifacts, guarded by `mu`. */
    struct Memo
    {
        std::mutex mu;
        std::condition_variable cv;
        std::map<std::string, TraceSlot> slots;
        std::shared_ptr<const std::vector<std::uint32_t>> committedAfter;
        std::uint64_t builds = 0;
        std::uint64_t bytes = 0;
        bool refining = false;
        std::shared_ptr<const CheckpointStore> refined;
        std::uint64_t refines = 0;
        std::uint64_t refinedBytes = 0;
    };
    mutable Memo memo_;
};

/**
 * Serialize prepared artifacts for the service's disk cache
 * (common/serial.hh).  The stream carries only dynamic state; loading
 * reconstructs the snapshot cores from the config named by `cfg`, so
 * a stream is only meaningful under the prepKey() that produced it —
 * pairing stream and config is the caller's contract (the service
 * names spill files by prepKey()).
 */
void savePreparedCampaign(const PreparedCampaign &prep,
                          serial::Writer &writer);

/**
 * Rebuild prepared artifacts from a savePreparedCampaign() stream.
 * Returns nullptr (and sets `error`) on any mismatch or truncation;
 * `cfg` must not carry a configTweak (not serializable).
 */
std::shared_ptr<const PreparedCampaign>
loadPreparedCampaign(const CampaignConfig &cfg, serial::Reader &reader,
                     std::string &error);

/**
 * One run the planner pruned instead of simulating, with the outcome
 * the pipeline precomputed for it.  Statically classified runs carry
 * the exact record the dispatcher would have produced; an
 * equivalence-class member carries its representative's record when
 * this process simulated the representative, or just the outcome
 * class when the representative came from a resume stream.
 */
struct PrunedRunOutcome
{
    std::uint64_t runId = 0;
    SiteVerdict verdict = SiteVerdict::InvalidEntry;
    std::uint64_t repRunId = ~0ull;  //!< EquivMember only
    std::uint64_t pruneClass = 0;    //!< 1-based class id, 0 = none
    syskit::RunRecord record;        //!< valid when haveRecord
    bool haveRecord = false;
    OutcomeClass cls = OutcomeClass::Masked; //!< used when !haveRecord
    std::string subclass;
};

/**
 * Everything a campaign leaves behind (the logs repository).  For a
 * sharded or resumed campaign, `records` (and the derived cycle and
 * stats aggregates) cover only the runs this process executed; the
 * telemetry artifacts are the campaign-wide record.  `pruned` covers
 * the runs the classification pipeline removed from this process's
 * plan view; `aggregateStats` deliberately sums executed runs only
 * (pruned runs have no per-run simulator stats — nothing ran).
 */
struct CampaignResult
{
    CampaignConfig config;
    syskit::RunRecord golden;
    std::vector<dfi::FaultMask> masks;          //!< all masks
    std::vector<syskit::RunRecord> records;     //!< one per executed
                                                //!< run, runId order
    std::vector<std::uint64_t> recordRunIds;    //!< runId of records[i]
    std::vector<PrunedRunOutcome> pruned;       //!< runId order
    PruneStats pruneStats;                      //!< campaign-wide
    std::uint64_t simulatedFaultyCycles = 0;    //!< post-restore cycles
    std::uint64_t fullRunEquivalentCycles = 0;  //!< without the
                                                //!< optimizations
    dfi::StatSet aggregateStats;                //!< executed runs only

    /**
     * Host wall-clock totals over the executed tasks, in
     * microseconds (volatile; bench_parallel_scaling's per-stage
     * breakdown).  totalRestoreMicros is the checkpoint-restore
     * share of totalWallMicros.
     */
    std::uint64_t totalWallMicros = 0;
    std::uint64_t totalRestoreMicros = 0;

    /**
     * The telemetry artifacts, captured in memory.  Non-empty when
     * telemetryOut or telemetryCapture requested telemetry; the
     * bytes equal what writeFiles() wrote (or would have written).
     */
    std::string telemetryRuns;
    std::string telemetrySummary;

    /**
     * Classify every run — executed and pruned — with the given
     * parser.  This is the campaign-wide tally: identical with and
     * without pruning (the determinism contract).
     */
    ClassCounts classify(const Parser &parser) const;
};

class CampaignPlan;
struct RunTask;
struct TaskResult;

/** The campaign controller. */
class InjectionCampaign
{
  public:
    using Progress = std::function<void(std::uint64_t done,
                                        std::uint64_t total)>;

    explicit InjectionCampaign(CampaignConfig config);
    ~InjectionCampaign();

    /** Golden reference record (runs it on first use). */
    const syskit::RunRecord &golden();

    /**
     * The shared preparation artifacts (runs the golden pass on
     * first use).  The returned state is immutable and safe to share
     * with other campaigns whose config prepKey() matches.
     */
    std::shared_ptr<const PreparedCampaign> prepared();

    /**
     * Adopt previously prepared artifacts instead of re-simulating
     * the golden pass (the service's warm-cache fast path).  Must be
     * called before the first golden()/run() call; the artifacts
     * must come from a config with the same prepKey() — that
     * equivalence is the caller's contract.
     */
    void adoptPrepared(std::shared_ptr<const PreparedCampaign> prep);

    /**
     * What run() would do, without simulating any faulty run (CLI
     * `--dry-run`): the resolved plan after sampling, classification,
     * pruning, and sharding.  `executed` counts this process's view;
     * the PruneStats are campaign-wide.
     */
    struct PlanSummary
    {
        std::uint64_t totalRuns = 0; //!< campaign-wide run count
        std::uint64_t executed = 0;  //!< tasks in this shard view
        PruneStats stats;            //!< campaign-wide tallies
        std::uint64_t maskCount = 0;
        /** Sum of golden.cycles - firstCycle + 1 over view tasks. */
        std::uint64_t estimatedSimulatedCycles = 0;
    };

    /** Resolve the plan and summarize it (runs the golden first). */
    PlanSummary planSummary();

    /**
     * Run the whole campaign.  A plan that simulates at least one run
     * first builds the prepared state's dense checkpoint store
     * (PreparedCampaign::refined()) unless checkpoints are off, and
     * every task restores from it.
     */
    CampaignResult run(const Progress &progress = {});

    /**
     * Run a single fault group (exposed for tests and directed
     * studies), restoring from the dense store as run() does.
     * `masks` must share one runId.
     */
    syskit::RunRecord runOne(const std::vector<dfi::FaultMask> &masks,
                             std::uint64_t *simulated_cycles = nullptr);

    /**
     * Execute one planned task (the executor layer's TaskRunner),
     * restoring from the dense store once run() or runOne() built it
     * and from the coarse one before.  Requires golden() to have run;
     * after that it only reads shared immutable state (config, image,
     * const checkpoints), so any number of threads may call it
     * concurrently.
     */
    TaskResult runTask(const RunTask &task) const;

    /**
     * The coarse checkpoint store prepare() captured (exposed for
     * tests and benches).  Valid after golden()/run() has prepared
     * the campaign.
     */
    const CheckpointStore &checkpoints() const
    {
        if (prep_ == nullptr)
            panic("checkpoints() before prepare(): run golden() "
                  "first");
        return prep_->checkpoints;
    }

  private:
    void prepare();

    /** Restore from the dense store from now on, unless checkpoints
     *  are off. */
    void useDenseCheckpoints();

    /** Resolve the full (unsharded) plan; requires prepare(). */
    CampaignPlan makePlan() const;

    CampaignConfig cfg_;
    std::shared_ptr<const PreparedCampaign> prep_; //!< set by prepare()
    std::shared_ptr<const CheckpointStore> dense_; //!< prep_->refined()
};

} // namespace dfi::inject

#endif // DFI_INJECT_CAMPAIGN_HH
