/**
 * @file
 * Campaign telemetry: schema-versioned, machine-readable run
 * artifacts, and the differential comparison over them.
 *
 * The paper's methodology is differential — MaFIN vs GeFIN results
 * are only meaningful because every run is logged, parsed and
 * *compared*.  This layer gives campaigns the machine-readable
 * counterpart of that logs repository:
 *
 *  - a JSONL run stream: one header line (schema version + config
 *    echo + golden reference + campaign-wide run count), then one
 *    flat JSON record per RunTask, emitted at the executor's
 *    ordered-commit point so the stream is byte-identical for any
 *    `--jobs` value — and streamed to disk line-by-line, so a killed
 *    campaign leaves a resumable partial;
 *  - a summary JSON document: config echo, per-class counts and
 *    percentages, and a run-length histogram.
 *
 * Scale-out rides on the same artifacts: a shard campaign
 * (`--shard I/N`) emits the stream restricted to its runs under the
 * *same* header, `inject/merge.hh` recombines shard streams into the
 * unsharded bytes, and `--resume` replays a partial stream's records
 * (tolerating a torn final line) before executing only the rest.
 *
 * Determinism contract: with timing capture off (the default) every
 * byte of both artifacts is a pure function of (config, program,
 * seed) — independent not only of hosts and `--jobs`, but of every
 * execution *strategy* knob (checkpointing on/off, checkpoint count
 * and budget).  Strategy-dependent measurements — wall-clock micros,
 * the executor job count, post-restore simulated cycles, restore
 * cost — are "volatile" fields, written as zero unless timing
 * capture is requested, and ignored by exact comparison either way;
 * strategy knobs are likewise excluded from the config echo.  See
 * DESIGN.md §7 for the schema reference and the version-bump policy.
 */

#ifndef DFI_INJECT_TELEMETRY_HH
#define DFI_INJECT_TELEMETRY_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.hh"
#include "inject/campaign.hh"
#include "inject/parser.hh"
#include "inject/plan.hh"

namespace dfi::inject
{

/**
 * Telemetry schema version.  Bump policy (DESIGN.md §7): adding a
 * field is a minor change and does NOT bump the version (readers
 * ignore unknown fields); renaming, removing, or changing the
 * meaning/unit of an existing field bumps it and requires
 * regenerating `results/golden/`.
 *
 * v2: `sim_cycles` became volatile (an execution-strategy
 * measurement, zero unless timing capture is on), the volatile
 * `restore_us` field was added, the summary histogram moved from
 * simulated cycles to deterministic run lengths (`run_cycles`), and
 * the checkpoint knobs left the config echo — so artifacts are
 * byte-identical with checkpointing on or off.
 *
 * v3: the planning pipeline gained static classification and
 * equivalence pruning (inject/prune.hh).  The header and summary
 * carry a volatile `prune` object (`pruned_static` / `pruned_equiv` /
 * `simulated` campaign-wide counts) and a volatile `generator` build
 * echo; every record carries a volatile `prune_class` (1-based
 * equivalence-class id, 0 outside any class); and the config echo
 * gained the outcome-relevant `exhaustive` flag.  Pruning itself is
 * an execution strategy: pruned and unpruned artifacts of the same
 * campaign are byte-identical outside the volatile fields.
 */
constexpr std::uint64_t kTelemetrySchemaVersion = 3;

/** Artifact kind tags (the "kind" member of the header/document). */
inline constexpr const char *kTelemetryRunsKind = "dfi-telemetry";
inline constexpr const char *kTelemetrySummaryKind = "dfi-summary";

/** Telemetry capture options. */
struct TelemetryOptions
{
    /**
     * Record real wall-clock micros and the executor job count.
     * Off by default: the volatile fields are written as zero so the
     * artifacts are byte-identical across hosts and `--jobs` values.
     */
    bool captureTiming = false;
};

/** One JSONL run record, decoded. */
struct TelemetryRecord
{
    std::uint64_t runId = 0;
    std::uint64_t seed = 0;
    std::string component;
    std::string structure;     //!< first mask's target structure
    std::uint64_t entry = 0;   //!< first mask's entry
    std::uint64_t bit = 0;     //!< first mask's bit
    std::string faultType;
    std::uint64_t injectionCycle = 0; //!< earliest mask cycle
    std::uint64_t maskCount = 0;      //!< masks in this fault group
    std::string outcome;              //!< class name (default parser)
    std::string subclass;
    std::uint64_t instructions = 0;   //!< retired instructions
    std::uint64_t cycles = 0;         //!< run length in sim cycles
    std::uint64_t simCycles = 0;      //!< post-restore; volatile
    std::uint64_t restoreMicros = 0;  //!< volatile
    std::uint64_t wallMicros = 0;     //!< volatile
    std::uint64_t jobs = 0;           //!< volatile
    /**
     * 1-based fault-equivalence class id (0 = not in any class).
     * Volatile: a strategy annotation — pruned and unpruned streams
     * differ here but nowhere else.
     */
    std::uint64_t pruneClass = 0;

    json::Value toJson() const;
};

/** A parsed telemetry artifact (run stream or summary). */
struct TelemetryFile
{
    std::string kind;      //!< kTelemetryRunsKind or ...SummaryKind
    json::Value header;    //!< header line / whole summary document
    std::vector<TelemetryRecord> records; //!< run streams only

    /**
     * Non-fatal reader diagnostic; empty when clean.  Set when a
     * torn trailing line (the signature of a killed writer) was
     * dropped — the parse still succeeds with the complete records.
     */
    std::string warning;
};

/**
 * The deterministic config echo embedded in both artifacts.  Only
 * outcome-relevant knobs appear; execution strategy (jobs,
 * checkpointing, shard selection, resume) is deliberately absent, so
 * artifacts are byte-comparable across strategies and shard streams
 * merge into the unsharded bytes.
 */
json::Value telemetryConfigEcho(const CampaignConfig &config);

/** The golden-run echo embedded in both artifacts. */
json::Value telemetryGoldenEcho(const syskit::RunRecord &golden);

/**
 * The complete runs-stream header object: kind, schema, the volatile
 * `generator` build echo, config echo, golden echo, the campaign-wide
 * run count (`runs_total`, the full plan size even when this process
 * executes only a shard or a resume remainder), and the volatile
 * campaign-wide `prune` tallies.  Shared by the writer, the resume
 * loader (which byte-compares it against a partial stream's header),
 * and dfi-merge (which requires it identical across shards — the
 * prune tallies are campaign-wide precisely so shard headers agree).
 */
json::Value telemetryRunsHeader(const CampaignConfig &config,
                                const syskit::RunRecord &golden,
                                std::uint64_t total_runs,
                                const PruneStats &prune);

/**
 * Order-insensitive accumulation of everything the summary document
 * derives from the run records: class counts, the run-length
 * histogram, and the volatile totals.  The writer feeds it live
 * commits; resume feeds it replayed records; dfi-merge feeds it the
 * merged record set — all three produce identical summaries for
 * identical records because the accumulation is shared.
 */
class SummaryAccumulator
{
  public:
    /** @param golden_cycles golden run length (histogram scale). */
    explicit SummaryAccumulator(std::uint64_t golden_cycles);

    /** Fold in one record (its outcome name must be a known class). */
    void add(const TelemetryRecord &record);

    const ClassCounts &counts() const { return counts_; }
    std::uint64_t runs() const { return counts_.total(); }

    /**
     * Render the summary document for the records folded in so far.
     * `config_echo`/`golden_echo` come from telemetryConfigEcho/
     * telemetryGoldenEcho (writer) or a parsed header (merge);
     * `jobs_echo` is the volatile jobs field (0 unless timing
     * capture is on); `prune` is the campaign-wide tally object
     * (nullptr omits it — pre-v3 streams have none to echo).
     */
    std::string summaryJson(const json::Value &config_echo,
                            const json::Value &golden_echo,
                            std::uint64_t jobs_echo,
                            const PruneStats *prune) const;

  private:
    std::uint64_t goldenCycles_;
    ClassCounts counts_;
    std::uint64_t totalSimCycles_ = 0;
    std::uint64_t totalRestoreMicros_ = 0;
    std::uint64_t totalWallMicros_ = 0;
    std::vector<std::uint64_t> histogram_; //!< run-length buckets
};

/**
 * Builds both artifacts for one campaign.  commit() must be called
 * once per task in ascending-runId order — the reporter's
 * ordered-commit point (CampaignReporter::setCommitSink) guarantees
 * exactly that for any plan view and job count.
 *
 * With streamTo() the run stream is additionally appended to disk
 * line-by-line (flushed per record), so a killed campaign leaves a
 * readable partial stream — at worst with one torn trailing line —
 * that `--resume` can finish from.
 */
class TelemetryWriter
{
  public:
    /**
     * @param total_runs campaign-wide run count (plan totalRuns()),
     *        echoed as `runs_total` in the header.
     * @param prune campaign-wide pruning tallies (plan pruneStats()),
     *        echoed in the header and summary.
     */
    TelemetryWriter(const CampaignConfig &config,
                    const syskit::RunRecord &golden,
                    std::uint64_t total_runs, std::uint32_t jobs,
                    const PruneStats &prune, TelemetryOptions options);

    /**
     * Declare the pruned runs of this process's plan view (plan
     * pruned()); their records are synthesized and interleaved into
     * the stream at the right runId positions — statically classified
     * runs as the early-stop (or golden) record the dispatcher would
     * have produced, equivalence-class members as their
     * representative's outcome.  Call before any commit/replay.
     */
    void setPruned(const std::vector<PrunedRun> &pruned);

    /**
     * Stream the run lines to `<base>.jsonl` incrementally (header
     * immediately, one flushed line per record).  Call before any
     * commit/replay; fatal() on I/O failure.
     */
    void streamTo(const std::string &base);

    /**
     * Re-emit one already-completed record verbatim (resume).  Call
     * before the tasks run, in ascending runId order; fatal() on
     * an unknown outcome class or disordered runId (a corrupt or
     * foreign resume stream).
     */
    void replay(const TelemetryRecord &record);

    /** Append one run record (call in ascending runId order). */
    void commit(const RunTask &task, const TaskResult &result);

    /**
     * Flush pruned records queued above the last committed runId.
     * Call after the last commit and before reading runsJsonl() /
     * summaryJson(); writeFiles() does it implicitly.  Idempotent.
     */
    void finalize() { flushAllPruned(); }

    /**
     * The JSONL run stream (header line + one line per record).
     * Complete only after finalize() or writeFiles().
     */
    const std::string &runsJsonl() const { return lines_; }

    /** The summary document (built from the commits so far). */
    std::string summaryJson() const;

    /**
     * Finalize the files of streamTo(base): flush the queued pruned
     * records into `<base>.jsonl`, close it and write
     * `<base>.summary.json`.  panic() unless streaming to
     * `<base>.jsonl`; fatal() on I/O failure.
     */
    void writeFiles(const std::string &base);

    const ClassCounts &counts() const { return acc_.counts(); }

  private:
    void appendLine(const std::string &line);
    /** Emit queued pruned records with runId < `run_id`. */
    void flushPrunedBelow(std::uint64_t run_id);
    /** Emit all remaining queued pruned records. */
    void flushAllPruned();
    void emitPruned(const PrunedRun &pruned);
    /** Remember a representative's outcome for member synthesis. */
    void harvestRep(std::uint64_t run_id,
                    const TelemetryRecord &record);

    /** A representative's outcome, fanned out to class members. */
    struct RepOutcome
    {
        std::string outcome;
        std::string subclass;
        std::uint64_t instructions = 0;
        std::uint64_t cycles = 0;
        bool known = false;
    };

    CampaignConfig config_;
    syskit::RunRecord golden_;
    std::uint32_t jobs_;
    PruneStats prune_;
    TelemetryOptions options_;
    Parser parser_;

    std::vector<PrunedRun> prunedQueue_; //!< ascending runId
    std::size_t nextPruned_ = 0;
    std::unordered_map<std::uint64_t, RepOutcome> reps_;

    std::string lines_;
    SummaryAccumulator acc_;
    bool anyEmitted_ = false;
    std::uint64_t lastRunId_ = 0;
    std::ofstream stream_;     //!< open while streaming
    std::string streamPath_;   //!< `<base>.jsonl` being streamed
};

/**
 * Histogram bucket upper bounds, as multiples of the golden run
 * length (the last bucket is unbounded).  The histogram buckets the
 * deterministic run lengths (`cycles`), so it participates in exact
 * comparison regardless of checkpoint placement.
 */
const std::vector<double> &telemetryHistogramEdges();

/**
 * Parse a telemetry artifact from memory.  Returns false (with
 * `error` set) on malformed input — never throws: artifacts are
 * external inputs.
 */
bool parseTelemetry(const std::string &text, TelemetryFile &out,
                    std::string &error);

/** Read + parse a telemetry artifact from disk. */
bool readTelemetryFile(const std::string &path, TelemetryFile &out,
                       std::string &error);

/**
 * Write one artifact pair from memory: `<base>.jsonl` and
 * `<base>.summary.json`.  False + error on I/O failure.
 */
bool writeTelemetryArtifacts(const std::string &base,
                             const std::string &runsJsonl,
                             const std::string &summaryJson,
                             std::string &error);

/**
 * True for a member that exact comparison skips at any nesting: host
 * timing, execution strategy (jobs, prune bookkeeping, simulated and
 * restore cycles) and the generator version.
 */
bool isVolatileTelemetryKey(const std::string &key);

/** Comparison outcome; values are the dfi-diff exit codes. */
enum class DiffOutcome : int
{
    Equal = 0,     //!< no drift
    Drift = 1,     //!< real divergence
    Malformed = 2, //!< unreadable/mismatched inputs
};

struct DiffOptions
{
    /**
     * Exact mode compares every non-volatile field of every record
     * and every non-volatile member of the header/summary.
     * Tolerance mode compares per-class outcome percentages within
     * `tolerancePercent` percentage points (cross-environment
     * statistical comparison).
     */
    bool exact = true;
    double tolerancePercent = 1.0;
};

/**
 * Compare two parsed artifacts of the same kind.  Appends
 * human-readable drift lines to `report`.
 */
DiffOutcome diffTelemetry(const TelemetryFile &a,
                          const TelemetryFile &b,
                          const DiffOptions &options,
                          std::string &report);

/** Convenience: read both paths, then diffTelemetry(). */
DiffOutcome diffTelemetryFiles(const std::string &pathA,
                               const std::string &pathB,
                               const DiffOptions &options,
                               std::string &report);

} // namespace dfi::inject

#endif // DFI_INJECT_TELEMETRY_HH
