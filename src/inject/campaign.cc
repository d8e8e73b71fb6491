#include "inject/campaign.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/cli.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "inject/executor.hh"
#include "inject/plan.hh"
#include "inject/reporting.hh"
#include "inject/target.hh"
#include "inject/telemetry.hh"
#include "isa/codegen.hh"
#include "prog/benchmark.hh"
#include "uarch/core_config.hh"

namespace dfi::inject
{

using dfi::FaultMask;
using dfi::FaultType;

namespace
{

/** Hard upper bound on any single simulated run. */
constexpr std::uint64_t kAbsoluteCycleCap = 200'000'000;

/**
 * A prepared state without its golden run: the program's expected
 * output and image, and a store with `cfg`'s checkpoint policy whose
 * base snapshot is the reset core.  prepare() runs the golden pass
 * from that snapshot; a load takes the golden record from the spill.
 * Every field read here must be hashed by prepKey(): the service
 * shares one preparation among all configs with that key.
 */
std::shared_ptr<PreparedCampaign>
buildProgram(const CampaignConfig &cfg)
{
    uarch::CoreConfig core_cfg = uarch::coreConfigByName(cfg.coreName);
    uarch::scaleCaches(core_cfg, cfg.cacheScale);
    if (cfg.configTweak)
        cfg.configTweak(core_cfg);
    const prog::Benchmark bench =
        prog::buildBenchmark(cfg.benchmark, cfg.scale);
    auto prep = std::make_shared<PreparedCampaign>();
    prep->expectedOutput = bench.expectedOutput;
    prep->image = ir::compileModule(bench.module, core_cfg.isa, 0x200000);

    CheckpointPolicy policy;
    policy.enabled = cfg.useCheckpoints;
    policy.targetCount = cfg.checkpointCount;
    policy.budgetBytes = cfg.checkpointMemBudgetMB * 1024 * 1024;
    prep->checkpoints = CheckpointStore(policy);
    prep->checkpoints.captureBase(uarch::OooCore(core_cfg, prep->image));
    prep->baseBytes = prep->checkpoints.heldBytes();
    return prep;
}

/**
 * FNV-1a of the image's archive bytes, the identity a spill records
 * of the program its golden run ran.  False when the archive failed
 * (the `serial.write` failpoint), so the digest is of nothing.
 */
bool
imageDigest(const isa::Image &image, std::uint64_t &digest)
{
    // Writer archives never mutate (common/serial.hh).
    serial::Writer writer;
    serial::value(writer, const_cast<isa::Image &>(image));
    digest = hash::fnv1a(writer.buffer());
    return writer.ok();
}

/** True inside a handler whose exception is a FatalError. */
bool
handlingFatal()
{
    try {
        throw;
    } catch (const FatalError &) {
        return true;
    } catch (...) {
        return false;
    }
}

bool
knownName(const std::vector<std::string> &names,
          const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string joined;
    for (const std::string &name : names) {
        if (!joined.empty())
            joined += ", ";
        joined += name;
    }
    return joined;
}

} // namespace

std::vector<ConfigError>
CampaignConfig::validate() const
{
    std::vector<ConfigError> errors;
    auto bad = [&errors](std::string field, std::string message) {
        errors.push_back(
            ConfigError{std::move(field), std::move(message)});
    };

    if (!knownName(componentNames(), component))
        bad("component", "unknown component '" + component +
                             "' (known: " +
                             joinNames(componentNames()) + ")");
    if (benchmark != "micro" &&
        !knownName(prog::benchmarkNames(), benchmark))
        bad("benchmark",
            "unknown benchmark '" + benchmark + "' (known: " +
                joinNames(prog::benchmarkNames()) + ", micro)");
    if (scale == 0)
        bad("scale", "must be >= 1");
    if (!knownName(uarch::coreConfigNames(), coreName))
        bad("core", "unknown core '" + coreName + "' (known: " +
                        joinNames(uarch::coreConfigNames()) + ")");
    if (confidence <= 0.0 || confidence >= 1.0)
        bad("confidence", "must be in (0, 1)");
    if (margin <= 0.0 || margin >= 1.0)
        bad("margin", "must be in (0, 1)");
    if (numInjections > kMaxCampaignRuns)
        bad("injections", "must be <= " +
                              std::to_string(kMaxCampaignRuns) +
                              " (the most runs a campaign plans)");
    if (exhaustive && numInjections != 0)
        bad("injections",
            "--exhaustive enumerates the whole fault space; drop "
            "--injections");
    if (exhaustive && (faultType != dfi::FaultType::Transient ||
                       population != Population::SingleBit))
        bad("exhaustive",
            "exhaustive campaigns enumerate single-bit transients "
            "only");
    if (intermittentMin > intermittentMax)
        bad("intermittent_min",
            "must not exceed intermittent_max (" +
                std::to_string(intermittentMin) + " > " +
                std::to_string(intermittentMax) + ")");
    if (faultType == dfi::FaultType::Intermittent &&
        intermittentMin == 0)
        bad("intermittent_min",
            "must be >= 1 for intermittent faults");
    if (cacheScale <= 0.0 || cacheScale > 1.0)
        bad("cache_scale", "must be in (0, 1]");
    if (timeoutFactor < 1.0)
        bad("timeout_factor", "must be >= 1");
    if (useCheckpoints && checkpointCount == 0)
        bad("checkpoints", "checkpoint count must be >= 1 when "
                           "checkpointing is enabled");
    if (checkpointCount > kMaxCheckpoints)
        bad("checkpoints", "must be <= " +
                               std::to_string(kMaxCheckpoints) +
                               " (bounds the restore store)");
    if (checkpointMemBudgetMB > (~0ull >> 20))
        bad("checkpoint_budget_mb",
            "must be < 2^44 (the budget in bytes must fit 64 bits)");
    if (shard.count == 0)
        bad("shard", "shard count must be >= 1");
    else if (shard.index >= shard.count)
        bad("shard", "shard index " + std::to_string(shard.index) +
                         " out of range for count " +
                         std::to_string(shard.count));
    if (!resumeFrom.empty() && telemetryOut.empty())
        bad("resume",
            "resuming requires a telemetry output path to append "
            "the finished campaign to");
    return errors;
}

std::string
CampaignConfig::cacheKey() const
{
    // The deterministic identity of a campaign is exactly its
    // telemetry config echo (every outcome-relevant field, no
    // execution-strategy knobs such as the checkpoint ones).  A
    // format tag leads so a key-derivation change re-keys every
    // entry cleanly.
    hash::Fnv1a hasher;
    hasher.update(std::string_view("dfi-cache-key-v2"));
    hasher.update(telemetryConfigEcho(*this).dump());
    return hasher.hexDigest();
}

std::string
CampaignConfig::prepKey() const
{
    // Exactly what prepare() reads, and nothing else: widening this
    // set splits preparations that are in fact equal, narrowing it
    // lets two programs alias one golden run.
    hash::Fnv1a hasher;
    hasher.update(std::string_view("dfi-prep-key-v1"));
    hasher.update(benchmark);
    hasher.update(static_cast<std::uint64_t>(scale));
    hasher.update(coreName);
    hasher.update(std::bit_cast<std::uint64_t>(cacheScale));
    hasher.update(static_cast<std::uint64_t>(useCheckpoints ? 1 : 0));
    hasher.update(static_cast<std::uint64_t>(checkpointCount));
    hasher.update(checkpointMemBudgetMB);
    return hasher.hexDigest();
}

void
bindCampaignFlags(cli::FlagSet &flags, CampaignConfig &cfg)
{
    flags.section("campaign selection");
    flags.text("--core", "NAME", "marss-x86 | gem5-x86 | gem5-arm",
               &cfg.coreName);
    flags.text("--benchmark", "NAME",
               "one of the ten workloads (or 'micro')",
               &cfg.benchmark);
    flags.text("--component", "NAME", "injection target",
               &cfg.component);
    flags.uint32("--scale", "N", "workload input scale (default 1)",
                 &cfg.scale);

    flags.section("fault selection");
    flags.uint64("--injections", "N",
                 "number of runs (default: derive from\n"
                 "--confidence/--margin)",
                 &cfg.numInjections);
    flags.number("--confidence", "P",
                 "sampling confidence (default 0.99)",
                 &cfg.confidence);
    flags.number("--margin", "E",
                 "sampling error margin (default 0.03)", &cfg.margin);
    flags.custom("--fault-type", "T",
                 "transient | intermittent | permanent",
                 [&cfg](const std::string &text, std::string &error) {
                     if (faultTypeFromName(text, cfg.faultType))
                         return true;
                     error = "expected transient | intermittent | "
                             "permanent";
                     return false;
                 });
    flags.custom("--population", "P",
                 "single | double-adjacent |\n"
                 "double-random | multi-structure",
                 [&cfg](const std::string &text, std::string &error) {
                     if (populationFromName(text, cfg.population))
                         return true;
                     error = "expected single | double-adjacent | "
                             "double-random | multi-structure";
                     return false;
                 });
    flags.uint64("--seed", "N", "campaign seed", &cfg.seed);
    flags.flag("--exhaustive",
               "enumerate every bit x cycle site of the\n"
               "component instead of sampling (single-bit\n"
               "transients only; small structures)",
               &cfg.exhaustive);

    flags.section("execution");
    flags.flag("--no-prune",
               "disable planning-time classification and\n"
               "fault-equivalence pruning; simulate every\n"
               "run (the classification is identical\n"
               "either way)",
               [&cfg] { cfg.prune = false; });
    flags.uint32("--jobs", "N",
                 "worker threads (default " +
                     std::to_string(cfg.jobs) +
                     "; 0 = hardware\n"
                     "concurrency, also the most used;\n"
                     "results are bit-identical for every N)",
                 &cfg.jobs);
    flags.number("--timeout-factor", "F",
                 "run bound vs golden cycles (default 3)",
                 &cfg.timeoutFactor);
    flags.number("--cache-scale", "F",
                 "cache capacity scale (default 0.0625)",
                 &cfg.cacheScale);
    flags.flag("--no-early-stop",
               "disable both early-stop optimizations", [&cfg] {
                   cfg.earlyStopInvalidEntry = false;
                   cfg.earlyStopOverwrite = false;
               });
    flags.flag("--no-checkpoints", "always start runs from reset",
               [&cfg] { cfg.useCheckpoints = false; });
    flags.uint32("--checkpoints", "N",
                 "target count of the checkpoints runs\n"
                 "restore from (default " +
                     std::to_string(cfg.checkpointCount) + ")",
                 &cfg.checkpointCount);
    flags.uint64("--checkpoint-budget", "MB",
                 "checkpoint memory budget in MiB\n"
                 "(default 256; 0 = unlimited)",
                 &cfg.checkpointMemBudgetMB);

    flags.section("output");
    flags.flag("--telemetry-timing",
               "record real wall-clock micros and the\n"
               "job count in the telemetry (marks the\n"
               "volatile fields; off by default)",
               &cfg.telemetryTiming);
}

void
PreparedCampaign::buildTraces(const std::vector<std::string> &components,
                              const std::vector<std::string> &ahead) const
{
    ensureBuilt(components, ahead, false);
}

void
PreparedCampaign::ensureBuilt(const std::vector<std::string> &components,
                              const std::vector<std::string> &ahead,
                              bool store) const
{
    // A base-only store needs no pass, so a trace pass captures the
    // store only when it will hold more than the base snapshot.
    const bool rides = checkpoints.maxLiveSnapshots() > 1;
    std::unique_lock<std::mutex> lock(memo_.mu);
    std::vector<std::string> claim;
    const auto unclaimed = [this, &claim](const std::string &component) {
        const auto it = memo_.slots.find(component);
        return (it == memo_.slots.end() ||
                (it->second.trace == nullptr && !it->second.building)) &&
               std::find(claim.begin(), claim.end(), component) ==
                   claim.end();
    };
    while (true) {
        // Work out what is missing and what of it no pass is building
        // again after every wake: a pass may have built it, or failed.
        claim.clear();
        bool waiting = false;
        for (const std::string &component : components) {
            const auto it = memo_.slots.find(component);
            if (it != memo_.slots.end() && it->second.building)
                waiting = true;
            else if (unclaimed(component))
                claim.push_back(component);
        }
        const bool missing = memo_.refined == nullptr;
        waiting = waiting || (store && missing && memo_.capturing);
        const bool capture = missing && !memo_.capturing &&
                             (store || (rides && !claim.empty()));
        if (claim.empty() && !capture) {
            if (!waiting)
                return;
            memo_.cv.wait(lock);
            continue;
        }
        if (!claim.empty()) {
            for (const std::string &component : ahead) {
                if (unclaimed(component))
                    claim.push_back(component);
            }
        }
        runPass(lock, claim, capture);
    }
}

void
PreparedCampaign::runPass(std::unique_lock<std::mutex> &lock,
                          const std::vector<std::string> &claim,
                          bool capture) const
{
    // The claim ends on every exit, a throw included: its slots and
    // the store are free again and every waiter works out anew what
    // it still needs.
    struct Release
    {
        Memo &memo;
        std::unique_lock<std::mutex> &lock;
        const std::vector<std::string> &claim;
        bool capture;

        Release(Memo &m, std::unique_lock<std::mutex> &l,
                const std::vector<std::string> &c, bool cap)
            : memo(m), lock(l), claim(c), capture(cap)
        {
        }
        Release(const Release &) = delete;
        Release &operator=(const Release &) = delete;
        ~Release()
        {
            if (!lock.owns_lock())
                lock.lock();
            for (const std::string &component : claim) {
                const auto it = memo.slots.find(component);
                if (it != memo.slots.end())
                    it->second.building = false;
            }
            memo.capturing = memo.capturing && !capture;
            --memo.inFlight;
            memo.cv.notify_all();
        }
    };
    ++memo_.inFlight;
    const Release release(memo_, lock, claim, capture);
    for (const std::string &component : claim)
        memo_.slots[component].building = true;
    memo_.capturing = memo_.capturing || capture;
    lock.unlock();

    std::vector<std::shared_ptr<GoldenTrace>> built;
    std::shared_ptr<CheckpointStore> store;
    std::uint64_t held = 0;
    bool ticked = false;
    try {
        // A copy of the base (cycle-0) snapshot is a reset core with
        // the golden pass's exact configuration.
        uarch::OooCore probe = checkpoints.sourceFor(0);
        if (capture) {
            store = std::make_shared<CheckpointStore>(checkpoints.policy(),
                                                      golden.cycles);
            store->captureBase(probe);
        }
        // One pass traces the structures of every claimed component;
        // each component's trace is then its own slice of the pass.
        std::vector<dfi::StructureId> structures;
        std::vector<std::size_t> first_of;
        for (const std::string &component : claim) {
            first_of.push_back(structures.size());
            for (const dfi::StructureId id :
                 resolveComponent(component, probe))
                structures.push_back(id);
        }
        first_of.push_back(structures.size());
        ticked = !claim.empty() ||
                 (store != nullptr && store->maxLiveSnapshots() > 1);
        if (ticked) {
            GoldenTrace pass =
                traceGoldenRun(probe, golden, structures, store.get());
            for (std::size_t i = 0; i < claim.size(); ++i) {
                const auto first = pass.structures.begin();
                auto trace = std::make_shared<GoldenTrace>();
                trace->terminalCycle = pass.terminalCycle;
                trace->committedAfter = pass.committedAfter;
                trace->structures.assign(
                    std::make_move_iterator(first + first_of[i]),
                    std::make_move_iterator(first + first_of[i + 1]));
                built.push_back(std::move(trace));
            }
        }
        if (store != nullptr)
            held = store->heldBytes();
    } catch (...) {
        lock.lock();
        memo_.bad = memo_.bad || handlingFatal();
        throw;
    }

    // Publishing allocates nothing: the slots exist since the claim.
    lock.lock();
    for (std::size_t i = 0; i < claim.size(); ++i) {
        GoldenTrace &trace = *built[i];
        // One golden run, one committed-instructions table: later
        // passes share the first one's.  A pass over components this
        // core lacks records none, and classifies no site.
        if (trace.committedAfter != nullptr &&
            memo_.committedAfter == nullptr) {
            memo_.committedAfter = trace.committedAfter;
            memo_.traceBytes +=
                memo_.committedAfter->size() * sizeof(std::uint32_t);
        } else if (trace.committedAfter != nullptr) {
            trace.committedAfter = memo_.committedAfter;
        }
        memo_.traceBytes += trace.structureBytes();
        memo_.slots.find(claim[i])->second.trace = std::move(built[i]);
        ++memo_.builds;
    }
    if (store != nullptr) {
        memo_.refined = std::move(store);
        memo_.refinedBytes = held;
    }
    if (ticked)
        ++memo_.passes;
}

std::shared_ptr<const GoldenTrace>
PreparedCampaign::trace(const std::string &component) const
{
    ensureBuilt({component}, {}, false);
    std::lock_guard<std::mutex> lock(memo_.mu);
    return memo_.slots.find(component)->second.trace;
}

std::shared_ptr<const CheckpointStore>
PreparedCampaign::refined() const
{
    ensureBuilt({}, {}, true);
    std::lock_guard<std::mutex> lock(memo_.mu);
    return memo_.refined;
}

std::uint64_t
PreparedCampaign::traceBuilds() const
{
    std::lock_guard<std::mutex> lock(memo_.mu);
    return memo_.builds;
}

std::uint64_t
PreparedCampaign::traceBytes() const
{
    std::lock_guard<std::mutex> lock(memo_.mu);
    return memo_.traceBytes;
}

std::uint64_t
PreparedCampaign::refines() const
{
    std::lock_guard<std::mutex> lock(memo_.mu);
    return memo_.refined != nullptr ? 1 : 0;
}

std::uint64_t
PreparedCampaign::refinedBytes() const
{
    std::lock_guard<std::mutex> lock(memo_.mu);
    return memo_.refinedBytes;
}

std::uint64_t
PreparedCampaign::passes() const
{
    std::lock_guard<std::mutex> lock(memo_.mu);
    return memo_.passes;
}

std::uint64_t
PreparedCampaign::passesInFlight() const
{
    std::lock_guard<std::mutex> lock(memo_.mu);
    return memo_.inFlight;
}

bool
PreparedCampaign::bad() const
{
    std::lock_guard<std::mutex> lock(memo_.mu);
    return memo_.bad;
}

std::uint64_t
PreparedCampaign::approxBytes() const
{
    std::uint64_t bytes = sizeof(PreparedCampaign);
    bytes += image.code.size() + image.data.size();
    bytes += expectedOutput.size() + golden.output.size();
    bytes += baseBytes;
    std::lock_guard<std::mutex> lock(memo_.mu);
    return bytes + memo_.traceBytes + memo_.refinedBytes;
}

void
savePreparedCampaign(const PreparedCampaign &prep, serial::Writer &writer)
{
    std::uint64_t digest = 0;
    if (!imageDigest(prep.image, digest)) {
        writer.fail();
        return;
    }
    serial::value(writer, digest);
    // The const_cast only satisfies the shared save/load signature.
    serial::value(writer, const_cast<syskit::RunRecord &>(prep.golden));
}

std::shared_ptr<const PreparedCampaign>
loadPreparedCampaign(const CampaignConfig &cfg, serial::Reader &reader,
                     std::string &error)
{
    if (cfg.configTweak) {
        error = "prepared-state streams cannot carry a configTweak";
        return nullptr;
    }
    std::uint64_t digest = 0;
    syskit::RunRecord golden;
    serial::value(reader, digest);
    serial::value(reader, golden);
    if (!reader.ok()) {
        error = reader.error();
        return nullptr;
    }

    // Everything but the golden record is rebuilt from the config, so
    // the record is checked against the rebuild: it must be a run of
    // this image that prepare() would have accepted.
    std::shared_ptr<PreparedCampaign> prep = buildProgram(cfg);
    std::uint64_t rebuilt = 0;
    if (!imageDigest(prep->image, rebuilt) || rebuilt != digest) {
        error = "prepared-state stream was recorded on another image";
        return nullptr;
    }
    if (golden.term != syskit::Termination::Exited ||
        golden.cycles == 0 || golden.cycles > kAbsoluteCycleCap ||
        golden.output != prep->expectedOutput) {
        error = "prepared-state stream holds a golden run prepare() "
                "would have refused";
        return nullptr;
    }
    prep->golden = std::move(golden);
    return prep;
}

InjectionCampaign::InjectionCampaign(CampaignConfig config)
    : cfg_(std::move(config))
{
}

InjectionCampaign::~InjectionCampaign() = default;

void
InjectionCampaign::prepare()
{
    if (prep_ != nullptr)
        return;

    const std::vector<ConfigError> errors = cfg_.validate();
    if (!errors.empty())
        fatal("invalid campaign config: %s: %s", errors[0].field,
              errors[0].message);

    // The golden pass, from a copy of the base snapshot.  The store
    // keeps only that snapshot, a COW copy of the reset core: the
    // next pass replays the run from it to record traces and capture
    // the snapshots runs restore from (buildTraces()).
    std::shared_ptr<PreparedCampaign> prep = buildProgram(cfg_);
    uarch::OooCore core = prep->checkpoints.sourceFor(0);
    while (core.tick()) {
        if (core.cycle() > kAbsoluteCycleCap)
            fatal("golden run of '%s' on '%s' exceeded the cycle cap",
                  cfg_.benchmark, cfg_.coreName);
    }
    prep->golden = core.record();
    if (prep->golden.term != syskit::Termination::Exited)
        fatal("golden run of '%s' on '%s' did not exit cleanly: %s",
              cfg_.benchmark, cfg_.coreName, prep->golden.detail);
    if (prep->golden.output != prep->expectedOutput)
        fatal("golden run of '%s' on '%s' produced wrong output",
              cfg_.benchmark, cfg_.coreName);
    prep->memo_.passes = 1;
    prep_ = std::move(prep);
}

const syskit::RunRecord &
InjectionCampaign::golden()
{
    prepare();
    return prep_->golden;
}

std::shared_ptr<const PreparedCampaign>
InjectionCampaign::prepared()
{
    prepare();
    return prep_;
}

void
InjectionCampaign::adoptPrepared(
    std::shared_ptr<const PreparedCampaign> prep)
{
    if (prep_ != nullptr)
        panic("adoptPrepared after prepare(): adopt before first "
              "use");
    if (prep == nullptr)
        panic("adoptPrepared: null preparation");

    // Adoption skips the golden pass but never validation: a config
    // the campaign would refuse cold must be refused warm too.
    const std::vector<ConfigError> errors = cfg_.validate();
    if (!errors.empty())
        fatal("invalid campaign config: %s: %s", errors[0].field,
              errors[0].message);
    prep_ = std::move(prep);
}

syskit::RunRecord
InjectionCampaign::runOne(const std::vector<FaultMask> &masks,
                          std::uint64_t *simulated_cycles)
{
    prepare();
    if (masks.empty())
        fatal("runOne: empty mask group");

    RunTask task;
    task.masks = masks;
    task.firstCycle = ~0ull;
    for (const FaultMask &mask : masks)
        task.firstCycle = std::min(task.firstCycle, mask.cycle);

    useRefined();
    const TaskResult result = runTask(task);
    if (simulated_cycles != nullptr)
        *simulated_cycles = result.simulatedCycles;
    return result.record;
}

void
InjectionCampaign::useRefined()
{
    // Checked per call, not per prepared state: whether an earlier
    // campaign built the restore store must never decide which cycles
    // this one simulates.
    if (cfg_.useCheckpoints && refined_ == nullptr)
        refined_ = prep_->refined();
}

TaskResult
InjectionCampaign::runTask(const RunTask &task) const
{
    if (prep_ == nullptr)
        panic("runTask before prepare(): run golden() first");
    const std::vector<FaultMask> &masks = task.masks;
    if (masks.empty())
        fatal("runTask: empty mask group");
    const std::uint64_t first_cycle = task.firstCycle;

    // Dispatch: copy the nearest read-only checkpoint before the
    // injection into this worker's private core.  The copy shares
    // the snapshot's COW pages, so its cost tracks the state the run
    // goes on to touch, not the core size.
    const CheckpointStore &store =
        refined_ != nullptr ? *refined_ : prep_->checkpoints;
    const auto restore_started = std::chrono::steady_clock::now();
    uarch::OooCore core = store.sourceFor(first_cycle);
    const std::uint64_t restore_micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - restore_started)
            .count());
    const std::uint64_t restored_cycle = core.cycle();

    dfi::FaultDomain domain;
    domain.setResolver([&core](dfi::StructureId id) {
        return core.arrayFor(id);
    });
    for (const FaultMask &mask : masks)
        domain.arm(mask);

    const bool single_transient =
        masks.size() == 1 && masks[0].type == FaultType::Transient;
    // Clamped in floating point: a product at or past 2^64 has no
    // integer conversion.
    const std::uint64_t limit = static_cast<std::uint64_t>(std::min(
        static_cast<double>(kAbsoluteCycleCap),
        static_cast<double>(prep_->golden.cycles) * cfg_.timeoutFactor));

    bool injected = false;
    bool watch_armed = false;
    bool early_masked = false;
    std::string early_reason;
    dfi::FaultableArray *watch_array = nullptr;

    // Arm the overwrite watch the moment the flip lands.
    auto arm_watch_if_injected = [&]() {
        if (single_transient && !injected &&
            domain.allTransientsApplied()) {
            injected = true;
            if (cfg_.earlyStopOverwrite) {
                watch_array = core.arrayFor(masks[0].structure);
                watch_array->armWatch(masks[0].entry, masks[0].bit);
                watch_armed = true;
            }
        }
    };

    // A transient due at the restored cycle (only cycle 0 qualifies:
    // later injections restore a strictly-earlier snapshot) is
    // applied by the pre-loop tick below, so both early-stop rules
    // must run for it here, before the loop.
    if (single_transient && cfg_.earlyStopInvalidEntry &&
        masks[0].cycle <= core.cycle() &&
        !core.entryLive(masks[0].structure, masks[0].entry)) {
        early_masked = true;
        early_reason = "invalid-entry";
    }

    if (!early_masked) {
        // Permanent/intermittent faults (and cycle-0 transients)
        // active from cycle 0.
        domain.tick(core.cycle());
        arm_watch_if_injected();
    }

    while (!early_masked && !core.finished()) {
        const std::uint64_t next_cycle = core.cycle() + 1;

        // Early-stop rule (i): the fault lands in an invalid entry.
        if (single_transient && !injected &&
            next_cycle >= masks[0].cycle) {
            if (cfg_.earlyStopInvalidEntry &&
                !core.entryLive(masks[0].structure, masks[0].entry)) {
                early_masked = true;
                early_reason = "invalid-entry";
                break;
            }
        }

        domain.tick(next_cycle);
        arm_watch_if_injected();

        if (!core.tick())
            break;

        // Early-stop rule (ii): overwritten before ever read.
        if (watch_armed) {
            const dfi::WatchState state = watch_array->watchState();
            if (state == dfi::WatchState::WrittenFirst) {
                early_masked = true;
                early_reason = "overwritten-before-read";
                break;
            }
            if (state == dfi::WatchState::ReadFirst) {
                watch_array->clearWatch();
                watch_armed = false;
            }
        }

        if (core.cycle() >= limit) {
            core.forceTimeout();
            break;
        }
    }

    if (watch_armed && watch_array != nullptr)
        watch_array->clearWatch();

    TaskResult result;
    if (early_masked) {
        result.record.earlyStopMasked = true;
        result.record.earlyStopReason = early_reason;
        result.record.cycles = core.cycle();
        result.record.instructions = core.committedInstructions();
    } else {
        if (!core.finished())
            core.forceTimeout();
        result.record = core.record();
    }
    result.simulatedCycles = core.cycle() - restored_cycle;
    result.restoreMicros = restore_micros;
    return result;
}

CampaignPlan
InjectionCampaign::makePlan() const
{
    // The probe core supplies the structure geometries: a copy of the
    // base (cycle-0) snapshot is a reset core with the golden pass's
    // exact configuration.  Classification reads the component's
    // golden trace, which the prepared state builds once and every
    // later campaign on it reuses.
    uarch::OooCore probe = prep_->checkpoints.sourceFor(0);
    const std::shared_ptr<const GoldenTrace> trace =
        planPrunes(cfg_) ? prep_->trace(cfg_.component) : nullptr;
    return planCampaign(cfg_, prep_->golden, probe, trace.get());
}

InjectionCampaign::PlanSummary
InjectionCampaign::planSummary()
{
    prepare();
    CampaignPlan plan = makePlan();

    PlanSummary summary;
    summary.totalRuns = plan.totalRuns();
    summary.stats = plan.pruneStats();
    summary.maskCount = plan.masks().size();
    if (cfg_.shard.count > 1)
        plan = plan.shardView(cfg_.shard);
    summary.executed = plan.numRuns();
    for (const RunTask &task : plan.tasks()) {
        summary.estimatedSimulatedCycles +=
            prep_->golden.cycles >= task.firstCycle
                ? prep_->golden.cycles - task.firstCycle + 1
                : 1;
    }
    return summary;
}

CampaignResult
InjectionCampaign::run(const Progress &progress)
{
    prepare();

    // Plan: resolve sampling size and the mask repository, then run
    // the classification pipeline.
    CampaignPlan plan = makePlan();
    const std::uint64_t total_runs = plan.totalRuns();

    // Shard first, then subtract resumed runs: `--resume` within a
    // shard continues that shard, and a resume stream naming runs
    // outside this shard view is rejected by withoutRuns().
    if (cfg_.shard.count > 1)
        plan = plan.shardView(cfg_.shard);

    // Resume: load the partial stream up front (fully buffered, so
    // streaming the new artifact over the same path is safe), prove
    // it belongs to this exact campaign by byte-comparing its header
    // against the one we are about to write, and drop its runs from
    // the plan.
    std::vector<TelemetryRecord> resumed;
    if (!cfg_.resumeFrom.empty()) {
        TelemetryFile partial;
        std::string error;
        if (!readTelemetryFile(cfg_.resumeFrom, partial, error))
            fatal("resume: %s", error);
        if (partial.kind != kTelemetryRunsKind)
            fatal("resume: '%s' is not a telemetry run stream",
                  cfg_.resumeFrom);
        if (!partial.warning.empty())
            warn("resume: %s: %s", cfg_.resumeFrom, partial.warning);
        const std::string expected =
            telemetryRunsHeader(cfg_, prep_->golden, total_runs,
                                plan.pruneStats())
                .dump();
        if (partial.header.dump() != expected)
            fatal("resume: '%s' came from a different campaign "
                  "(header mismatch; check config and seed)",
                  cfg_.resumeFrom);
        resumed = std::move(partial.records);
        std::unordered_set<std::uint64_t> completed;
        for (const TelemetryRecord &record : resumed)
            completed.insert(record.runId);
        plan = plan.withoutRuns(completed);
    }

    // Runs restore from refined(), built once per prepared state and
    // only for a plan that simulates something.
    if (plan.numRuns() > 0)
        useRefined();

    // Execute on up to cfg_.jobs pool threads; the results come back
    // in runId order for every job count.
    CampaignReporter reporter(progress, plan.numRuns());

    // Telemetry attaches at the reporter's ordered-commit point, so
    // the stream is identical for every job count.  It streams to
    // disk line-by-line: a killed campaign leaves a resumable partial
    // instead of nothing.
    std::unique_ptr<TelemetryWriter> telemetry;
    if (!cfg_.telemetryOut.empty() || cfg_.telemetryCapture) {
        telemetry = std::make_unique<TelemetryWriter>(
            cfg_, prep_->golden, total_runs, resolveJobs(cfg_.jobs),
            plan.pruneStats(), TelemetryOptions{cfg_.telemetryTiming});
        // Capture-only telemetry (the campaign service) stays in
        // memory; a path additionally streams every line to disk.
        if (!cfg_.telemetryOut.empty())
            telemetry->streamTo(cfg_.telemetryOut);
        // Pruned runs of this plan view interleave into the stream at
        // their runId positions; already-resumed pruned runs were
        // dropped from the view by withoutRuns() above.
        telemetry->setPruned(plan.pruned());
        // Completed runs from the resume stream re-enter the new
        // artifact verbatim, ahead of everything this process runs
        // (resumed runIds always precede the remainder: the partial
        // stream was itself written in ascending-runId order).
        for (const TelemetryRecord &record : resumed)
            telemetry->replay(record);
        reporter.setCommitSink(
            [&telemetry](const RunTask &task,
                         const TaskResult &task_result) {
                telemetry->commit(task, task_result);
            });
    }

    std::vector<TaskResult> task_results = runTasks(
        plan, cfg_.jobs,
        [this](const RunTask &task) {
            const auto started = std::chrono::steady_clock::now();
            TaskResult task_result = runTask(task);
            task_result.wallMicros = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - started)
                    .count());
            return task_result;
        },
        reporter);

    if (telemetry != nullptr && !cfg_.telemetryOut.empty())
        telemetry->writeFiles(cfg_.telemetryOut);

    // Report: fold the ordered results into the campaign record.
    CampaignResult result;
    result.config = cfg_;
    if (telemetry != nullptr) {
        // Pruned runs above the last committed runId are still
        // queued; a capture-only writer (no writeFiles) must flush
        // them or the in-memory artifacts drop the trailing records.
        telemetry->finalize();
        result.telemetryRuns = telemetry->runsJsonl();
        result.telemetrySummary = telemetry->summaryJson();
    }
    result.golden = prep_->golden;
    result.masks = plan.masks();
    result.pruneStats = plan.pruneStats();
    result.records.reserve(task_results.size());
    result.recordRunIds.reserve(task_results.size());
    result.aggregateStats = reporter.aggregateStats();
    const std::vector<RunTask> &tasks = plan.tasks();
    if (task_results.size() != tasks.size())
        panic("campaign: %s results for %s planned tasks",
              task_results.size(), tasks.size());
    for (std::size_t i = 0; i < task_results.size(); ++i) {
        TaskResult &task_result = task_results[i];
        result.simulatedFaultyCycles += task_result.simulatedCycles;
        result.totalWallMicros += task_result.wallMicros;
        result.totalRestoreMicros += task_result.restoreMicros;
        // Without checkpoints and early stops the run would have
        // simulated from reset to wherever it ended (or to the end of
        // the program for masked runs).
        const syskit::RunRecord &rec = task_result.record;
        result.fullRunEquivalentCycles +=
            rec.earlyStopMasked ? prep_->golden.cycles
                                : std::max(rec.cycles, prep_->golden.cycles);
        result.recordRunIds.push_back(tasks[i].runId);
        result.records.push_back(std::move(task_result.record));
    }

    // Fold the pruned runs of this view in with their precomputed
    // outcomes, so result.classify() tallies the whole view exactly
    // as an unpruned campaign would.
    std::unordered_map<std::uint64_t, const syskit::RunRecord *>
        executed;
    for (std::size_t i = 0; i < result.records.size(); ++i)
        executed.emplace(result.recordRunIds[i], &result.records[i]);
    std::unordered_map<std::uint64_t, const TelemetryRecord *>
        resumed_by_id;
    for (const TelemetryRecord &record : resumed)
        resumed_by_id.emplace(record.runId, &record);

    result.pruned.reserve(plan.pruned().size());
    for (const PrunedRun &pruned : plan.pruned()) {
        PrunedRunOutcome outcome;
        outcome.runId = pruned.runId;
        outcome.verdict = pruned.verdict;
        outcome.repRunId = pruned.repRunId;
        outcome.pruneClass = pruned.pruneClass;
        switch (pruned.verdict) {
          case SiteVerdict::InvalidEntry:
          case SiteVerdict::DeadOverwrite:
          case SiteVerdict::GoldenRun:
            outcome.record = staticRecord(pruned, prep_->golden);
            outcome.haveRecord = true;
            result.fullRunEquivalentCycles += prep_->golden.cycles;
            break;
          case SiteVerdict::EquivMember: {
            const auto exec = executed.find(pruned.repRunId);
            if (exec != executed.end()) {
                outcome.record = *exec->second;
                outcome.haveRecord = true;
                result.fullRunEquivalentCycles += std::max(
                    outcome.record.cycles, prep_->golden.cycles);
                break;
            }
            const auto rep = resumed_by_id.find(pruned.repRunId);
            if (rep == resumed_by_id.end())
                panic("campaign: pruned run %s has no representative "
                      "%s in this view",
                      pruned.runId, pruned.repRunId);
            // The representative came from the resume stream: only
            // its classified outcome survives, not the full record.
            if (!outcomeClassFromName(rep->second->outcome,
                                      outcome.cls))
                fatal("campaign: resume record %s has unknown "
                      "outcome class '%s'",
                      rep->second->runId, rep->second->outcome);
            outcome.subclass = rep->second->subclass;
            outcome.record.cycles = rep->second->cycles;
            outcome.record.instructions = rep->second->instructions;
            result.fullRunEquivalentCycles +=
                std::max(outcome.record.cycles, prep_->golden.cycles);
            break;
          }
          case SiteVerdict::Simulate:
            panic("campaign: Simulate verdict among pruned runs "
                  "(run %s)",
                  pruned.runId);
        }
        result.pruned.push_back(std::move(outcome));
    }
    return result;
}

ClassCounts
CampaignResult::classify(const Parser &parser) const
{
    ClassCounts counts;
    for (const syskit::RunRecord &record : records)
        counts.add(parser.classify(golden, record).cls);
    for (const PrunedRunOutcome &outcome : pruned) {
        counts.add(outcome.haveRecord
                       ? parser.classify(golden, outcome.record).cls
                       : outcome.cls);
    }
    return counts;
}

} // namespace dfi::inject
