#include "inject/campaign.hh"

#include <algorithm>
#include <bit>
#include <chrono>
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
 * The dense checkpoint store's least target count: one snapshot every
 * 512-1,024 cycles on the benchmark programs, so a run re-simulates
 * at most that much of the golden run before its flip.
 */
constexpr std::uint32_t kDenseCheckpoints = 64;

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
    // execution-strategy knobs).  The checkpoint knobs are appended
    // because this key once named the prepared state too; they stay
    // so response memos already on disk keep their names.  A format
    // tag leads so a future key-derivation change re-keys every
    // entry cleanly.
    hash::Fnv1a hasher;
    hasher.update(std::string_view("dfi-cache-key-v1"));
    hasher.update(telemetryConfigEcho(*this).dump());
    hasher.update(static_cast<std::uint64_t>(useCheckpoints ? 1 : 0));
    hasher.update(static_cast<std::uint64_t>(checkpointCount));
    hasher.update(checkpointMemBudgetMB);
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
                     "concurrency; results are bit-identical\n"
                     "for every N)",
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
                 "target live checkpoint count\n(default 6)",
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

std::shared_ptr<const GoldenTrace>
PreparedCampaign::trace(const std::string &component) const
{
    std::unique_lock<std::mutex> lock(memo_.mu);
    TraceSlot &slot = memo_.slots[component];
    memo_.cv.wait(lock, [&slot] { return !slot.building; });
    if (slot.trace != nullptr)
        return slot.trace;
    slot.building = true;
    lock.unlock();

    GoldenTrace built;
    try {
        // A copy of the base (cycle-0) snapshot is a reset core with
        // the golden pass's exact configuration.
        uarch::OooCore probe = checkpoints.sourceFor(0);
        built = traceGoldenRun(probe, golden,
                               resolveComponent(component, probe));
    } catch (...) {
        lock.lock();
        slot.building = false;
        memo_.cv.notify_all();
        throw;
    }

    lock.lock();
    // One golden run, one committed-instructions table: later traces
    // share the first one's.
    if (memo_.committedAfter == nullptr) {
        memo_.committedAfter = built.committedAfter;
        memo_.bytes +=
            memo_.committedAfter->size() * sizeof(std::uint32_t);
    } else {
        built.committedAfter = memo_.committedAfter;
    }
    slot.trace = std::make_shared<const GoldenTrace>(std::move(built));
    slot.building = false;
    ++memo_.builds;
    memo_.bytes += slot.trace->structureBytes();
    memo_.cv.notify_all();
    return slot.trace;
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
    return memo_.bytes;
}

std::shared_ptr<const CheckpointStore>
PreparedCampaign::refined() const
{
    std::unique_lock<std::mutex> lock(memo_.mu);
    memo_.cv.wait(lock, [this] { return !memo_.refining; });
    if (memo_.refined != nullptr)
        return memo_.refined;
    memo_.refining = true;
    lock.unlock();

    std::shared_ptr<CheckpointStore> built;
    std::uint64_t held = 0;
    try {
        CheckpointPolicy policy = checkpoints.policy();
        policy.targetCount =
            std::max(policy.targetCount, kDenseCheckpoints);
        built = std::make_shared<CheckpointStore>(policy);
        uarch::OooCore core = checkpoints.sourceFor(0);
        built->captureBase(core);
        // The golden pass again, observed the way prepare() observes
        // it: every snapshot is the golden core at its cycle.
        if (built->maxLiveSnapshots() > 1) {
            while (core.tick())
                built->observe(core);
            if (core.cycle() != golden.cycles)
                panic("checkpoint replay ended at cycle %s, the golden "
                      "run at %s",
                      core.cycle(), golden.cycles);
        }
        held = built->heldBytes();
    } catch (...) {
        lock.lock();
        memo_.refining = false;
        memo_.cv.notify_all();
        throw;
    }

    lock.lock();
    memo_.refined = std::move(built);
    memo_.refining = false;
    ++memo_.refines;
    memo_.refinedBytes = held;
    memo_.cv.notify_all();
    return memo_.refined;
}

std::uint64_t
PreparedCampaign::refines() const
{
    std::lock_guard<std::mutex> lock(memo_.mu);
    return memo_.refines;
}

std::uint64_t
PreparedCampaign::refinedBytes() const
{
    std::lock_guard<std::mutex> lock(memo_.mu);
    return memo_.refinedBytes;
}

std::uint64_t
PreparedCampaign::approxBytes() const
{
    std::uint64_t bytes = sizeof(PreparedCampaign);
    bytes += image.code.size() + image.data.size();
    bytes += expectedOutput.size() + golden.output.size();
    bytes += checkpoints.count() * checkpoints.snapshotBoundBytes();
    std::lock_guard<std::mutex> lock(memo_.mu);
    return bytes + memo_.bytes + memo_.refinedBytes;
}

void
savePreparedCampaign(const PreparedCampaign &prep, serial::Writer &writer)
{
    // Writer archives never mutate (common/serial.hh); the const_cast
    // only satisfies the shared save/load serializeState signature.
    auto &mutable_prep = const_cast<PreparedCampaign &>(prep);
    serial::value(writer, mutable_prep.image);
    serial::value(writer, mutable_prep.expectedOutput);
    serial::value(writer, mutable_prep.golden);
    prep.checkpoints.saveState(writer);
}

std::shared_ptr<const PreparedCampaign>
loadPreparedCampaign(const CampaignConfig &cfg, serial::Reader &reader,
                     std::string &error)
{
    if (cfg.configTweak) {
        error = "prepared-state streams cannot carry a configTweak";
        return nullptr;
    }
    uarch::CoreConfig core_cfg = uarch::coreConfigByName(cfg.coreName);
    uarch::scaleCaches(core_cfg, cfg.cacheScale);

    auto prep = std::make_shared<PreparedCampaign>();
    serial::value(reader, prep->image);
    serial::value(reader, prep->expectedOutput);
    serial::value(reader, prep->golden);
    if (!reader.ok()) {
        error = reader.error();
        return nullptr;
    }
    if (prep->image.isa != core_cfg.isa) {
        error = "prepared-state stream targets a different ISA";
        return nullptr;
    }
    prep->checkpoints.loadState(reader, core_cfg, prep->image);
    if (!reader.ok()) {
        error = reader.error();
        return nullptr;
    }
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

    // Every field read from here on must be hashed by prepKey(): the
    // service shares one preparation among all configs with that key.
    auto prep = std::make_shared<PreparedCampaign>();
    uarch::CoreConfig core_cfg =
        uarch::coreConfigByName(cfg_.coreName);
    uarch::scaleCaches(core_cfg, cfg_.cacheScale);
    if (cfg_.configTweak)
        cfg_.configTweak(core_cfg);
    const prog::Benchmark bench =
        prog::buildBenchmark(cfg_.benchmark, cfg_.scale);
    prep->expectedOutput = bench.expectedOutput;
    prep->image = ir::compileModule(bench.module, core_cfg.isa,
                                    0x200000);

    // Single full-program pass: the golden reference and the restore
    // checkpoints are captured together.  Snapshots are COW-backed
    // core copies, so each capture copies page tables, not pages.
    CheckpointPolicy checkpoint_policy;
    checkpoint_policy.enabled = cfg_.useCheckpoints;
    checkpoint_policy.targetCount = cfg_.checkpointCount;
    checkpoint_policy.budgetBytes =
        cfg_.checkpointMemBudgetMB * 1024 * 1024;
    prep->checkpoints = CheckpointStore(checkpoint_policy);

    uarch::OooCore core(core_cfg, prep->image);
    prep->checkpoints.captureBase(core);
    while (core.tick()) {
        if (core.cycle() > kAbsoluteCycleCap)
            fatal("golden run of '%s' on '%s' exceeded the cycle cap",
                  cfg_.benchmark, cfg_.coreName);
        prep->checkpoints.observe(core);
    }
    prep->golden = core.record();
    if (prep->golden.term != syskit::Termination::Exited)
        fatal("golden run of '%s' on '%s' did not exit cleanly: %s",
              cfg_.benchmark, cfg_.coreName, prep->golden.detail);
    if (prep->golden.output != prep->expectedOutput)
        fatal("golden run of '%s' on '%s' produced wrong output",
              cfg_.benchmark, cfg_.coreName);
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

    useDenseCheckpoints();
    const TaskResult result = runTask(task);
    if (simulated_cycles != nullptr)
        *simulated_cycles = result.simulatedCycles;
    return result.record;
}

void
InjectionCampaign::useDenseCheckpoints()
{
    // Checked per call, not per prepared state: whether an earlier
    // campaign built the dense store must never decide which cycles
    // this one simulates.
    if (cfg_.useCheckpoints && dense_ == nullptr)
        dense_ = prep_->refined();
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
        dense_ != nullptr ? *dense_ : prep_->checkpoints;
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
    const std::uint64_t limit = std::min<std::uint64_t>(
        kAbsoluteCycleCap,
        static_cast<std::uint64_t>(
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
    // The probe core supplies the structure geometries; classification
    // reads the component's golden trace, which the prepared state
    // builds once and every later campaign on it reuses.
    uarch::CoreConfig core_cfg = uarch::coreConfigByName(cfg_.coreName);
    uarch::scaleCaches(core_cfg, cfg_.cacheScale);
    if (cfg_.configTweak)
        cfg_.configTweak(core_cfg);
    uarch::OooCore probe(core_cfg, prep_->image);
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

    // Runs restore from the dense store, built once per prepared
    // state and only for a plan that simulates something.
    if (plan.numRuns() > 0)
        useDenseCheckpoints();

    // Execute: serial or thread pool per cfg_.jobs; either way the
    // results come back in runId order.
    CampaignReporter reporter(progress, plan.numRuns());
    const std::unique_ptr<Executor> executor =
        makeExecutor({cfg_.jobs});

    // Telemetry attaches at the reporter's ordered-commit point, so
    // the stream is identical for every executor and job count.  It
    // streams to disk line-by-line: a killed campaign leaves a
    // resumable partial instead of nothing.
    std::unique_ptr<TelemetryWriter> telemetry;
    if (!cfg_.telemetryOut.empty() || cfg_.telemetryCapture) {
        telemetry = std::make_unique<TelemetryWriter>(
            cfg_, prep_->golden, total_runs, executor->jobs(),
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

    std::vector<TaskResult> task_results = executor->run(
        plan,
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
            outcome.record.earlyStopMasked = true;
            outcome.record.earlyStopReason =
                pruned.verdict == SiteVerdict::InvalidEntry
                    ? "invalid-entry"
                    : "overwritten-before-read";
            outcome.record.cycles = pruned.cycles;
            outcome.record.instructions = pruned.instructions;
            outcome.haveRecord = true;
            result.fullRunEquivalentCycles += prep_->golden.cycles;
            break;
          case SiteVerdict::GoldenRun:
            outcome.record = prep_->golden;
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
