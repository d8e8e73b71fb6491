/**
 * @file
 * Persistent campaign service with a content-addressed warm artifact
 * cache (the scale-out layer above the campaign engine).
 *
 * Every `dfi-campaign` invocation re-simulates the golden run and
 * rebuilds the checkpoint store from scratch, even though those
 * artifacts are a pure function of (program, core model, checkpoint
 * knobs) and PR 3 made them COW-backed shared state.  The
 * CampaignService amortizes that cost across requests the way a
 * simulator fleet amortizes it across users:
 *
 *  - prepared state is content-addressed by
 *    CampaignConfig::prepKey(), which hashes only what prepare()
 *    reads: any request on an already-prepared program — whatever
 *    its structure, fault model or seed — adopts the cached
 *    PreparedCampaign (golden run + checkpoints) and skips prepare()
 *    entirely, going straight to plan/execute.  The response memo
 *    below is keyed by the whole campaign (cacheKey() plus prune);
 *  - cached preparations live in an LRU keyed by a byte budget
 *    (Options::cacheBudgetBytes), charged at
 *    PreparedCampaign::approxBytes(); cold entries evict first.  A
 *    prepared state's golden traces (one per component, built by the
 *    first pruned request that needs it) and its dense checkpoint
 *    store (built by the first request that simulates a run) live
 *    and die with it: each executed request re-charges its entry, so
 *    they count against the budget, and they are never spilled to
 *    disk;
 *  - preparation is single-flight: when several racing requests miss
 *    on the same prepKey(), exactly one (the leader) runs prepare()
 *    and the rest block until the shared artifacts are published —
 *    the fleet never simulates the same golden run twice
 *    concurrently;
 *  - queued execution admits in FIFO order onto a bounded pool of
 *    Options::workers execution slots (each campaign may still use
 *    `jobs` threads internally), with a per-client in-flight quota
 *    and a global admission capacity so one client cannot starve the
 *    fleet;
 *  - with Options::cacheDir set, prepared state spills to disk
 *    (common/serial.hh streams framed by an FNV-1a digest) and whole
 *    memoized responses persist as JSON, so a restarted daemon serves
 *    warm hits immediately and an exact repeat request returns the
 *    recorded response without re-executing;
 *  - progress streams back through the campaign's ordered-commit
 *    reporting, so a served campaign emits the same (done, total)
 *    sequence a local run would.
 *
 * Determinism contract: a served campaign's telemetry artifacts are
 * byte-identical to a local `dfi-campaign` run of the same config —
 * warm or cold, concurrent or serial.  The prepared-state caches
 * only ever short-circuit the golden pass, never the faulty runs,
 * and checkpoint reuse is already proven byte-exact by the
 * golden-diff CI legs; the response memo goes one step further and
 * replays the recorded bytes of a previous execution verbatim (it is
 * skipped when telemetry timing is on, since wall-clock fields are
 * not reproducible).  `scripts/check_service.sh` asserts exactly
 * this against `results/golden/`.
 *
 * The wire protocol (served by inject/serve.hh) is newline-delimited
 * JSON over a Unix-domain socket; the encode/decode halves live here
 * so they are unit-testable without sockets.  See DESIGN.md §11.
 */

#ifndef DFI_INJECT_SERVICE_HH
#define DFI_INJECT_SERVICE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/json.hh"
#include "inject/campaign.hh"
#include "inject/parser.hh"

namespace dfi::inject
{

/** Protocol object tags (the "kind" member of every line). */
inline constexpr const char *kServiceRequestKind = "dfi-request";
inline constexpr const char *kServiceResponseKind = "dfi-response";
inline constexpr const char *kServiceProgressKind = "dfi-progress";

/** Upper bound on one protocol line (the runs artifact rides in). */
inline constexpr std::size_t kMaxLineBytes = 256ull << 20;

/**
 * Upper bound on a request line, which the daemon buffers before it
 * answers.  A request is under 1 KiB; the bound leaves room for long
 * names without letting one peer make the daemon hold megabytes.
 */
inline constexpr std::size_t kMaxRequestLineBytes = 64u << 10;

/** One client request: an operation plus (for campaigns) a config. */
struct ServiceRequest
{
    /** "campaign" | "ping" | "stats" | "shutdown". */
    std::string op = "campaign";

    /** Client identity for the per-client in-flight quota. */
    std::string client = "anon";

    CampaignConfig config;
};

/**
 * Decode a request line.  Strict: unknown operations, unknown config
 * keys, and type mismatches are errors (a service must not guess at
 * traffic it does not understand).  Config keys mirror the telemetry
 * config echo plus the execution knobs a remote client may set
 * (jobs, prune, checkpoint shape); telemetry paths, shard, and
 * resume are deliberately not part of the protocol — artifacts
 * travel back in the response and land wherever the *client* says.
 */
bool decodeServiceRequest(const json::Value &line, ServiceRequest &out,
                          std::string &error);

/** Encode a request line (the client half). */
json::Value encodeServiceRequest(const ServiceRequest &request);

/** A progress event line. */
json::Value encodeServiceProgress(std::uint64_t done,
                                  std::uint64_t total);

/**
 * Decode a progress event line (the client half); false unless it is
 * one and its `done` and `total` are unsigned integers.
 */
bool decodeServiceProgress(const json::Value &line, std::uint64_t &done,
                           std::uint64_t &total);

/** The terminal response to one request. */
struct ServiceResponse
{
    bool ok = false;
    std::string op = "campaign";
    std::string error; //!< set when !ok

    /**
     * On !ok: true when the failure is backpressure (draining, queue
     * full, client quota) that a client may retry later, false for
     * hard errors (bad config, engine failure) that a retry would
     * only repeat.
     */
    bool retryable = false;

    // Campaign responses only:
    std::string cacheKey;  //!< CampaignConfig::cacheKey()
    bool cacheHit = false; //!< prepare() was skipped

    /**
     * Where the warm artifacts came from: "none" (cold prepare),
     * "memory" (LRU), "flight" (joined a racing request's prepare),
     * "disk" (restart-persistent spill), or "response" (the whole
     * memoized response was served without executing).
     */
    std::string cacheSource = "none";
    std::uint64_t runsTotal = 0;
    ClassCounts counts;
    double vulnerability = 0.0;
    std::string telemetryRuns;    //!< full runs JSONL artifact
    std::string telemetrySummary; //!< full summary JSON artifact

    /** Extra payload for ping/stats responses (object or null). */
    json::Value extra;
};

json::Value encodeServiceResponse(const ServiceResponse &response);

/** Decode a response line (the client half). */
bool decodeServiceResponse(const json::Value &line,
                           ServiceResponse &out, std::string &error);

/** The long-running service: cache + queue around the engine. */
class CampaignService
{
  public:
    struct Options
    {
        /**
         * LRU byte budget for cached preparations (0 disables
         * caching entirely — every request prepares cold).
         */
        std::uint64_t cacheBudgetBytes = 1024ull << 20;

        /** Admitted (queued + running) requests per client. */
        std::uint32_t perClientInFlight = 2;

        /** Admitted requests across all clients. */
        std::uint32_t queueCapacity = 64;

        /**
         * Campaigns executing simultaneously through executeQueued
         * (each may still use `jobs` threads internally).  0 is
         * treated as 1.
         */
        std::uint32_t workers = 1;

        /**
         * Directory for the restart-persistent disk cache (prepared
         * state spills + memoized responses).  Empty disables disk
         * persistence.
         */
        std::string cacheDir;
    };

    /**
     * Graceful degradation: after this many *consecutive* disk-cache
     * I/O failures the disk tier disables itself (counted in stats;
     * the memory tier keeps serving).  A miss — absent or invalid
     * file — is not a failure.
     */
    static constexpr std::uint32_t kDiskFailureLimit = 3;

    struct CacheStats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t entries = 0;
        std::uint64_t bytes = 0;

        /** Hits that joined another request's in-flight prepare. */
        std::uint64_t coalesced = 0;

        std::uint64_t diskHits = 0;
        std::uint64_t diskStores = 0;
        std::uint64_t responseHits = 0;
        std::uint64_t responseStores = 0;

        /** Disk-cache I/O failures (reads and stores, total). */
        std::uint64_t diskErrors = 0;

        /** True once the disk tier degraded itself off. */
        bool diskDisabled = false;

        /** Golden traces built by cached prepared states. */
        std::uint64_t traceBuilds = 0;

        /** Bytes of golden traces charged to the cached entries. */
        std::uint64_t traceBytes = 0;

        /** Dense checkpoint stores built by cached prepared states. */
        std::uint64_t refines = 0;

        /** Bytes of dense stores charged to the cached entries. */
        std::uint64_t refinedBytes = 0;
    };

    using Progress =
        std::function<void(std::uint64_t done, std::uint64_t total)>;

    explicit CampaignService(Options options);

    /**
     * Execute one campaign request synchronously on the calling
     * thread (no queue, no quota).  Never throws: engine fatal()s
     * come back as !ok responses.
     */
    ServiceResponse execute(const ServiceRequest &request,
                            const Progress &progress = {});

    /**
     * Queued execution: admit (enforcing the per-client quota and
     * the global capacity — both rejected immediately with a
     * retryable !ok response, not blocked), wait for a worker slot
     * in FIFO order, then execute.  Up to Options::workers campaigns
     * run simultaneously; each may still use `jobs` worker threads
     * internally.
     */
    ServiceResponse executeQueued(const ServiceRequest &request,
                                  const Progress &progress = {});

    /**
     * Stop admitting queued requests and block until every admitted
     * one has finished (SIGTERM drain).  Idempotent.
     */
    void drain();

    CacheStats cacheStats() const;

    /** Cache + queue counters as a JSON object (the stats op). */
    json::Value statsJson() const;

  private:
    struct CacheEntry
    {
        std::string key;
        std::shared_ptr<const PreparedCampaign> prep;
        std::uint64_t bytes = 0;
        std::uint64_t traceBytes = 0;   //!< share of bytes
        std::uint64_t traceBuilds = 0;  //!< already in stats_
        std::uint64_t refinedBytes = 0; //!< share of bytes
        std::uint64_t refines = 0;      //!< already in stats_
    };

    /**
     * One in-flight prepare() shared by every racing request with the
     * same prepKey(), whatever the rest of its config.  The leader
     * fills prep or error and flips done; followers block on cv.
     */
    struct PrepFlight
    {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        std::shared_ptr<const PreparedCampaign> prep;
        std::string error;
    };

    /** Look up + front-move; nullptr on miss.  Caller holds mu_. */
    std::shared_ptr<const PreparedCampaign>
    lockedLruFind(const std::string &key);

    /** Insert and evict LRU entries beyond the byte budget. */
    void cacheInsert(const std::string &key,
                     std::shared_ptr<const PreparedCampaign> prep);

    /**
     * Re-charge `prep`'s entry (if still cached) at its current
     * approxBytes() — it grows as requests build golden traces and
     * the dense checkpoint store — and evict beyond the byte budget
     * the way cacheInsert() does.
     */
    void
    cacheRecharge(const std::shared_ptr<const PreparedCampaign> &prep);

    /** Evict LRU entries beyond the byte budget.  Caller holds mu_. */
    void lockedEvictOverBudget();

    /** cacheStats() for a caller that holds mu_. */
    CacheStats lockedCacheStats() const;

    /**
     * Resolve a flight (success or error) and wake its followers.
     * The flights_ entry is erased only here, after the caller has
     * already published the artifacts to the LRU, so there is never
     * a moment where neither the flight nor the cache holds the key.
     */
    void publishFlight(const std::string &key, PrepFlight &flight,
                       std::shared_ptr<const PreparedCampaign> prep,
                       const std::string &error);

    /** The response-memo key: cacheKey() refined by run-set knobs. */
    static std::string responseKey(const std::string &cacheKey,
                                   bool prune);

    std::string prepPath(const std::string &key) const;
    std::string responsePath(const std::string &key) const;

    /**
     * Outcome of a disk-cache lookup.  A Miss (absent, truncated, or
     * digest-failed file) is the cold-fallback contract working as
     * designed; an IoError is the storage itself failing and feeds
     * the degradation counter.
     */
    enum class DiskRead
    {
        Hit,
        Miss,
        IoError,
    };

    std::shared_ptr<const PreparedCampaign>
    loadPreparedFromDisk(const CampaignConfig &cfg,
                         const std::string &key,
                         bool &io_error) const;
    bool storePreparedToDisk(const std::string &key,
                             const PreparedCampaign &prep) const;
    DiskRead loadResponseFromDisk(const std::string &key, bool prune,
                                  ServiceResponse &out) const;
    bool storeResponseToDisk(const std::string &key, bool prune,
                             const ServiceResponse &response) const;

    /** True while the disk tier is configured and not degraded. */
    bool diskEnabled() const;

    /**
     * Feed the degradation policy one disk outcome: success resets
     * the consecutive-failure streak, failure advances it and trips
     * diskDisabled_ at kDiskFailureLimit.
     */
    void noteDiskOutcome(bool ok);

    Options opts_;

    mutable std::mutex mu_;
    std::condition_variable cv_;

    // Warm artifact cache by prepKey(), most-recently-used first.
    std::list<CacheEntry> lru_;
    std::uint64_t cacheBytes_ = 0;
    CacheStats stats_;

    // In-flight preparations by prepKey() (single-flight dedup).
    std::map<std::string, std::shared_ptr<PrepFlight>> flights_;

    // FIFO admission queue: waiting_ holds tickets in issue order;
    // the front ticket starts as soon as a worker slot frees up.
    // active_ counts admitted-but-unfinished requests, running_ the
    // ones holding a worker slot.
    std::uint64_t nextTicket_ = 0;
    std::deque<std::uint64_t> waiting_;
    std::uint32_t running_ = 0;
    std::uint32_t active_ = 0;
    std::map<std::string, std::uint32_t> inFlight_;
    bool draining_ = false;

    // Disk-tier degradation state (guarded by mu_).
    std::uint32_t diskFailStreak_ = 0;
    bool diskDisabled_ = false;
};

} // namespace dfi::inject

#endif // DFI_INJECT_SERVICE_HH
