/**
 * @file
 * Shared pieces of the perfbench harness: the run options, the
 * result a workload fills, the statistics helpers with the
 * percentile guard, and small host probes.  See README.md for the
 * workloads and the metric -> layer map.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "inject/campaign.hh"

namespace perfbench
{

/** Command line of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string serveBin;  //!< dfi-serve built beside the harness
    std::string stateDir;  //!< scratch + records, inside the checkout
    std::string goldenDir; //!< results/golden of the checkout
    std::string sourceDigest; //!< digest of the program's sources
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What a workload run produced.  A failed output check appends to
 * `failures` and counts one failed operation; the run is then
 * reported as incorrect.
 */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<Metric> endToEnd; //!< untraced runs
    std::vector<Metric> layers;   //!< traced runs

    /**
     * Mix guard: exact counts that must repeat for every run at the
     * same (workload, seed, seconds).
     */
    std::map<std::string, std::uint64_t> mix;

    /** Reported beside the mix, never compared (timing-dependent). */
    std::map<std::string, std::uint64_t> mixInfo;

    /**
     * Digests of the artifacts a run produced, by name.  Untraced and
     * traced runs of one seed must produce the same ones.
     */
    std::map<std::string, std::string> artifacts;

    void fail(const std::string &what);
    void check(bool ok, const std::string &what);
    void e2e(const std::string &name, double value,
             const std::string &unit);
    void layer(const std::string &name, double value,
               const std::string &unit);
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values);
double mean(const std::vector<double> &values);

/**
 * Percentile guard: the nearest-rank `p` quantile of `values`, only
 * when at least 10 samples lie strictly beyond it.  Otherwise the
 * run fails (a thin tail is never printed) and 0 is returned.  The
 * sample count is printed beside every percentile on stderr.
 */
double guardedPercentile(Outcome &out, const std::string &name,
                         std::vector<double> values, double p);

/**
 * The gated latency metrics from every sample of each class in the
 * timed phase.  The work is fixed, so the pooled samples are the same
 * requests in every run; a median over rounds or batches, whose work
 * differs, would jump between them (README).
 */
void reportLatencies(Outcome &out, const std::vector<double> &sweep,
                     const std::vector<double> &repeat);

/**
 * The repeat p90, a per-layer metric: a repeat answers in well under a
 * millisecond, so its tail follows the host's thread wake-up jitter
 * more than the program (README).
 */
void reportRepeatTail(Outcome &out, const std::vector<double> &repeat);

/** Peak resident set (VmHWM) of a process in MiB; "self" for us. */
double peakRssMiB(const std::string &pid = "self");

std::string readFile(const std::string &path);
bool writeFile(const std::string &path, const std::string &bytes);
void makeDirs(const std::string &path);
void removeTree(const std::string &path);

/** splitmix64 step: the harness's own seeded stream. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/**
 * Where the work itself (fault masks, request seeds) is drawn from:
 * the same for every --seed, so the work a run does, and with it the
 * run's length, never swings with the seed.  Masks drawn from the seed
 * moved a run's throughput by 8-19 % (README).  --seed orders the work.
 */
constexpr std::uint64_t kWorkSeed = 0x5eed;

/** A permutation of 0 .. n-1, drawn from `seed`. */
std::vector<std::size_t> shuffledOrder(std::size_t n, std::uint64_t seed);

/**
 * A telemetry artifact with its timing fields (the volatile wall
 * times, restore times, post-restore cycles and job counts) set to 0:
 * the bytes the same campaign writes with timing capture off.
 */
std::string timingFree(const std::string &artifact);

/** 16-hex-digit FNV-1a digest of some bytes. */
std::string digestOf(const std::string &bytes);

/**
 * Compare this run's mix counts and artifact digests with the record
 * left by earlier runs of the same sources at the same (workload,
 * seed, seconds), or, if there is none and this run passed its
 * checks, leave the record.  Every mismatch fails the run.
 */
void checkRunRecord(Outcome &out, const Options &options);

/**
 * Per-layer samples gathered by the traced run.  Each probe times a
 * public call (or the lower calls a covering call is made of) on the
 * inputs the workload uses.
 */
struct LayerSamples
{
    std::vector<double> buildMs;      //!< prog::buildBenchmark
    std::vector<double> compileMs;    //!< ir::compileModule
    std::vector<double> goldenKcps;   //!< fault-free tick loop
    std::vector<double> captureMs;    //!< CheckpointStore capture
    std::vector<double> prepareMs;    //!< InjectionCampaign::prepared
    std::vector<double> saveMs;       //!< savePreparedCampaign
    std::vector<double> loadMs;       //!< loadPreparedCampaign
    std::vector<double> serialKb;     //!< saved stream size
    std::vector<double> planMs;       //!< planCampaign
    std::vector<double> restoreUs;    //!< sourceFor() copy + 1 tick
};

/**
 * Time prepare's layers for one campaign config: build, compile, the
 * golden tick loop alone and checkpoint capture, then prepared()
 * itself (whose remainder is its own self time), then save and reload
 * of the result, which must round-trip to the same stream.
 */
void probePrepare(const dfi::inject::CampaignConfig &config,
                  const std::string &id, LayerSamples &samples,
                  Outcome &out);

/**
 * Time planCampaign() for a prepared config, then `restores` seeded
 * checkpoint restores (copy from sourceFor() plus the first tick).
 */
void probePlanAndRestore(
    const dfi::inject::CampaignConfig &config,
    const dfi::inject::PreparedCampaign &prep, const std::string &id,
    std::uint64_t seed, std::size_t restores, LayerSamples &samples);

/** Report the probe samples (means; restore as guarded p50/p99). */
void reportLayerSamples(Outcome &out, const LayerSamples &samples);

/**
 * Run the three `micro` smoke cells of results/golden/ in process and
 * byte-compare both artifacts with the checked-in baselines.
 */
void checkGoldenSmoke(const Options &options, Outcome &out);

/** Workload entry points. */
void runCampaignSim(const Options &options, Outcome &out);
void runServeMix(const Options &options, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
