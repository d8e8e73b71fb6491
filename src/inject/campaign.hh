/**
 * @file
 * Injection Campaign Controller and Injector Dispatcher (module 2 of
 * Fig. 1).
 *
 * The controller owns a complete campaign: it runs the golden
 * (fault-free) reference, asks the Fault Mask Generator for masks,
 * and drives one faulty run per mask group through the dispatcher.
 * Each run restores from a simulator checkpoint before its injection
 * (the paper's use of the simulators' checkpointing to speed up
 * campaigns; see inject/checkpoint.hh).  The dispatcher applies the
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
 *  - task loop (inject/executor.hh)  runs the tasks on the calling
 *    thread plus up to CampaignConfig::jobs - 1 threads of the
 *    process's shared pool, committing results in runId order so the
 *    output is bit-identical either way;
 *  - reporting (inject/reporting.hh) delivers progress callbacks and
 *    stats aggregation on the calling thread.
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
#include "common/serial.hh"
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

/**
 * The most runs one campaign may plan, however the count is set:
 * CampaignConfig::validate() refuses a larger `--injections`, and
 * planCampaign() a larger count derived from the sampling parameters
 * or an exhaustive enumeration.  Planning peaks at a few hundred
 * bytes per run (1.3 GiB for a pruned plan of this many runs), so
 * this bounds what any request can make the planner allocate before
 * it simulates; the largest figure cell plans 50,000 runs, and the
 * exhaustive lsq plan of `micro` about 1.4 million.
 */
inline constexpr std::uint64_t kMaxCampaignRuns = 4'000'000;

/**
 * The largest `--checkpoints` target CampaignConfig::validate()
 * accepts.  The restore store keeps at most twice the target, so
 * even with no memory budget (`--checkpoint-budget 0`) it holds at
 * most 512 snapshots, wherever the golden run ends: an unpruned
 * 4-run MARSS `sha` campaign at budget 0 peaks at 32 MiB RSS here,
 * against 13 MiB at the default 64 and 112 MiB with no bound (one
 * snapshot per 64 golden cycles).  At the default 256 MiB budget the
 * store's cap is 123 whatever the target.
 */
inline constexpr std::uint32_t kMaxCheckpoints = 256;

/** Full campaign parameters. */
struct CampaignConfig
{
    std::string component = "int_regfile";
    std::string benchmark = "sha";
    std::uint32_t scale = 1;
    std::string coreName = "marss-x86";

    /**
     * Number of injection runs; 0 derives it from the statistical
     * sampling parameters below.  At most kMaxCampaignRuns.
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

    /**
     * Snapshots the checkpoint store faulty runs restore from
     * converges on (CLI `--checkpoints`): [N, 2N) evenly spaced over
     * the golden run, fewer when the budget below binds.  At most
     * kMaxCheckpoints.  See inject/checkpoint.hh.
     */
    std::uint32_t checkpointCount = 64;

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
     * Threads driving the faulty runs: 1 = serial (the default),
     * 0 = hardware concurrency, N = that many threads, at most the
     * hardware concurrency (the pool's width).  The campaign outcome
     * is bit-identical for every value.
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
     * model, fault selection, seed, ...).  Pure execution/reporting
     * knobs (jobs, checkpoints, telemetry paths, shard, resume,
     * prune) are excluded.  It is not the key of the prepared state:
     * that is prepKey(), which many campaigns share.
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
 * The `--jobs` and `--checkpoints` help state `cfg`'s values as the
 * defaults, so set the tool's defaults first.  A tool may reopen a
 * section afterwards.
 */
void bindCampaignFlags(cli::FlagSet &flags, CampaignConfig &cfg);

/**
 * The immutable artifacts of a campaign's preparation pass: the
 * compiled program image, the golden (fault-free) reference run, and
 * the reset core that run started from.  They are a pure function of
 * (benchmark, scale, core model, cache scale, checkpoint knobs) —
 * none of the fault-selection fields — so any number of campaigns
 * whose CampaignConfig::prepKey() matches may share one instance:
 * every consumer only ever copy-constructs private cores from const
 * checkpoint snapshots, which is already the executor's
 * thread-safety contract.  Only the golden run costs a simulation;
 * the rest is rebuilt from the config in well under a millisecond,
 * which is why the disk spill holds the golden record alone.
 *
 * The golden traces that classification reads (inject/prune.hh) and
 * the checkpoint store that faulty runs restore from are a pure
 * function of the same state, so the prepared state memoizes them
 * and stays a shareable value.  One instrumented golden pass builds
 * both: it traces every component asked for and, unless it is built
 * already, captures the restore store (buildTraces()).
 */
struct PreparedCampaign
{
    isa::Image image;
    std::vector<std::uint8_t> expectedOutput;
    syskit::RunRecord golden;

    /**
     * The campaign's checkpoint policy and its base (cycle-0)
     * snapshot, the reset core.  Nothing else: prepare()'s golden
     * pass and every later pass start from a copy of that snapshot.
     */
    CheckpointStore checkpoints;

    /** checkpoints.heldBytes(), counted when the state is built. */
    std::uint64_t baseBytes = 0;

    /**
     * Build the traces of `components` not built yet, each in a
     * golden pass from a copy of the base snapshot.  A pass this call
     * runs also traces those of `ahead` that no pass has built or is
     * building, and captures the restore store when no pass has, if
     * the policy affords more than the base snapshot.  Nothing in
     * `ahead` makes a pass run.  Passes claim what they build:
     * callers wait only for a missing component another pass is
     * building, passes for disjoint components run in parallel, and
     * a failed pass (fatal, bad_alloc) publishes nothing and leaves
     * its claims to the next caller.
     */
    void buildTraces(const std::vector<std::string> &components,
                     const std::vector<std::string> &ahead = {}) const;

    /**
     * The checkpoint store faulty runs restore from: the policy of
     * `checkpoints` (the `--checkpoints` target and the budget),
     * captured from a pass over the golden run under the golden
     * run's length: a trace pass's, or a pass of its own when none
     * captured it first.  A policy that affords only the base
     * snapshot builds it without a pass.  Never serialized.  A pass
     * that does not reproduce the golden run is a fatal() error.
     */
    std::shared_ptr<const CheckpointStore> refined() const;

    /** Restore stores built so far: 0 or 1. */
    std::uint64_t refines() const;

    /** Bytes refined() keeps alive (CheckpointStore::heldBytes). */
    std::uint64_t refinedBytes() const;

    /**
     * The golden trace of `component` (buildTraces({component})),
     * traced on a reset core with the golden pass's exact
     * CoreConfig, configTweak included.  The traces of one prepared
     * state share one committed-instructions table.  Traces are never
     * serialized: a loaded state rebuilds them on demand.
     */
    std::shared_ptr<const GoldenTrace>
    trace(const std::string &component) const;

    /** Traces built so far. */
    std::uint64_t traceBuilds() const;

    /** Bytes held by the traces built so far. */
    std::uint64_t traceBytes() const;

    /**
     * Golden passes this state has run to completion: prepare()'s
     * and every pass that traced or captured the restore store.  A
     * state loaded from the spill starts at 0.
     */
    std::uint64_t passes() const;

    /** Passes running on this state now. */
    std::uint64_t passesInFlight() const;

    /**
     * True once a pass threw a FatalError: the state failed a replay
     * of its own golden run, so it is not what prepare() builds, and
     * a cache holding it should drop it.
     */
    bool bad() const;

    /**
     * Resident-footprint estimate in bytes (the service's LRU budget
     * accounting): the artifacts, the base snapshot at what it holds
     * (baseBytes), and the traces and refined() store at what they
     * hold.  Takes the memo's lock, so a caller may hold its own lock
     * around it as long as no pass ever waits on that lock.
     */
    std::uint64_t approxBytes() const;

  private:
    friend class InjectionCampaign; //!< counts prepare()'s pass

    struct TraceSlot
    {
        bool building = false; //!< claimed by a running pass
        std::shared_ptr<const GoldenTrace> trace;
    };
    /** The memo of traces and refined() store: mutable cache state
     *  beside the immutable artifacts, guarded by `mu`. */
    struct Memo
    {
        std::mutex mu;
        std::condition_variable cv;
        std::map<std::string, TraceSlot> slots;
        std::shared_ptr<const std::vector<std::uint32_t>> committedAfter;
        std::uint64_t builds = 0;
        std::uint64_t traceBytes = 0;
        bool capturing = false; //!< a running pass captures the store
        std::shared_ptr<const CheckpointStore> refined;
        std::uint64_t refinedBytes = 0;
        std::uint64_t passes = 0;
        std::uint64_t inFlight = 0;
        bool bad = false;
    };
    mutable Memo memo_;

    /**
     * Return once `components` are traced and, with `store`, the
     * restore store is built, running a pass for whatever no other
     * pass is building (buildTraces()).
     */
    void ensureBuilt(const std::vector<std::string> &components,
                     const std::vector<std::string> &ahead,
                     bool store) const;

    /**
     * One pass that builds `claim` and, with `capture`, the store.
     * Called with `lock` held on memo_.mu and returns with it held;
     * the claim is released on every exit.
     */
    void runPass(std::unique_lock<std::mutex> &lock,
                 const std::vector<std::string> &claim,
                 bool capture) const;
};

/**
 * Serialize prepared artifacts for the service's disk cache
 * (common/serial.hh): an FNV-1a digest of the image's archive bytes
 * and the golden record, the one artifact a load cannot rebuild
 * without simulating.  A stream is only meaningful under the
 * prepKey() that produced it — pairing stream and config is the
 * caller's contract (the service names spill files by prepKey()).
 * A failed archive write leaves `writer` not ok().
 */
void savePreparedCampaign(const PreparedCampaign &prep,
                          serial::Writer &writer);

/**
 * Rebuild prepared artifacts from `cfg` and a savePreparedCampaign()
 * stream: program, expected output, image and base snapshot as
 * prepare() builds them, with `cfg`'s checkpoint policy, and the
 * golden record from the stream.  Returns nullptr (and sets `error`)
 * on truncation, when the stream's image digest is not the rebuilt
 * image's, and on a golden record prepare() would have refused (not
 * `Exited`, zero cycles or more than the cycle cap, output unlike the
 * rebuilt expected output).  `cfg` must not carry a configTweak (not
 * serializable).
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
     * bytes equal the files a telemetryOut path receives.
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
     * first builds the prepared state's restore store
     * (PreparedCampaign::refined()) unless checkpoints are off, and
     * every task restores from it.
     */
    CampaignResult run(const Progress &progress = {});

    /**
     * Run a single fault group (exposed for tests and directed
     * studies), restoring from refined() as run() does.  `masks` must
     * share one runId.
     */
    syskit::RunRecord runOne(const std::vector<dfi::FaultMask> &masks,
                             std::uint64_t *simulated_cycles = nullptr);

    /**
     * Execute one planned task (the executor layer's TaskRunner),
     * restoring from refined() once run() or runOne() built it and
     * from the base snapshot before.  Requires golden() to have run;
     * after that it only reads shared immutable state (config, image,
     * const checkpoints), so any number of threads may call it
     * concurrently.
     */
    TaskResult runTask(const RunTask &task) const;

  private:
    void prepare();

    /** Restore from refined() from now on, unless checkpoints are
     *  off. */
    void useRefined();

    /** Resolve the full (unsharded) plan; requires prepare(). */
    CampaignPlan makePlan() const;

    CampaignConfig cfg_;
    std::shared_ptr<const PreparedCampaign> prep_; //!< set by prepare()
    std::shared_ptr<const CheckpointStore> refined_; //!< prep_->refined()
};

} // namespace dfi::inject

#endif // DFI_INJECT_CAMPAIGN_HH
