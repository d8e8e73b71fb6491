#include "inject/plan.hh"

#include <algorithm>

#include "common/logging.hh"
#include "inject/mask_gen.hh"
#include "inject/sampling.hh"
#include "inject/target.hh"
#include "uarch/ooo_core.hh"

namespace dfi::inject
{

namespace
{

/**
 * Stage 1, exhaustive flavor: one single-bit transient site for every
 * bit x cycle of the component, in (structure, entry, bit, cycle)
 * order with sequential runIds.
 */
std::vector<dfi::FaultMask>
enumerateExhaustive(const CampaignConfig &config,
                    const syskit::RunRecord &golden,
                    uarch::OooCore &probe, std::uint64_t &runs)
{
    if (golden.cycles == 0)
        fatal("exhaustive enumeration: zero-length golden run");
    const std::vector<dfi::StructureId> structures =
        resolveComponent(config.component, probe);

    std::uint64_t total = 0;
    for (const dfi::StructureId structure : structures) {
        const dfi::FaultableArray *array = probe.arrayFor(structure);
        if (array != nullptr)
            total += array->totalBits() * golden.cycles;
    }
    if (total == 0)
        fatal("exhaustive enumeration: component '%s' has no "
              "injectable bits on core '%s'",
              config.component, config.coreName);
    // Exhaustive campaigns are meant for small structures (the
    // pruning pipeline then collapses most sites); anything bigger is
    // a config mistake, not a campaign.
    if (total > kMaxCampaignRuns)
        fatal("exhaustive enumeration of '%s' would plan %s runs "
              "(cap %s); pick a smaller structure or workload, or "
              "sample with --injections",
              config.component, total, kMaxCampaignRuns);

    std::vector<dfi::FaultMask> masks;
    masks.reserve(total);
    std::uint64_t run_id = 0;
    for (const dfi::StructureId structure : structures) {
        const dfi::FaultableArray *array = probe.arrayFor(structure);
        if (array == nullptr)
            continue;
        for (std::size_t entry = 0; entry < array->numEntries();
             ++entry) {
            for (std::size_t bit = 0; bit < array->bitsPerEntry();
                 ++bit) {
                for (std::uint64_t cycle = 1; cycle <= golden.cycles;
                     ++cycle) {
                    dfi::FaultMask mask;
                    mask.runId = static_cast<std::uint32_t>(run_id++);
                    mask.structure = structure;
                    mask.entry = static_cast<std::uint32_t>(entry);
                    mask.bit = static_cast<std::uint32_t>(bit);
                    mask.type = dfi::FaultType::Transient;
                    mask.cycle = cycle;
                    masks.push_back(mask);
                }
            }
        }
    }
    runs = run_id;
    return masks;
}

} // namespace

CampaignPlan::CampaignPlan(CampaignConfig config,
                           syskit::RunRecord golden,
                           std::vector<dfi::FaultMask> masks,
                           std::uint64_t num_runs)
    : config_(std::move(config)), golden_(std::move(golden)),
      masks_(std::move(masks)), totalRuns_(num_runs)
{
    tasks_.resize(num_runs);
    for (std::uint64_t run_id = 0; run_id < num_runs; ++run_id)
        tasks_[run_id].runId = run_id;
    for (const dfi::FaultMask &mask : masks_) {
        if (mask.runId >= num_runs)
            panic("plan: mask runId %s out of range (%s runs)",
                  mask.runId, num_runs);
        RunTask &task = tasks_[mask.runId];
        task.masks.push_back(mask);
        if (task.masks.size() == 1 || mask.cycle < task.firstCycle)
            task.firstCycle = mask.cycle;
    }
    // Until (unless) applyPruning() runs, every run is simulated.
    pruneStats_.simulated = num_runs;
}

void
CampaignPlan::applyPruning(
    const std::vector<SiteClassification> &classifications)
{
    if (!pruned_.empty())
        panic("plan: applyPruning called twice");
    if (tasks_.size() != totalRuns_)
        panic("plan: applyPruning on a plan view (%s of %s tasks)",
              tasks_.size(), totalRuns_);
    if (classifications.size() != totalRuns_)
        panic("plan: %s classifications for %s runs",
              classifications.size(), totalRuns_);

    std::vector<RunTask> kept;
    PruneStats stats;
    for (std::uint64_t run_id = 0; run_id < totalRuns_; ++run_id) {
        const SiteClassification &cls = classifications[run_id];
        RunTask &task = tasks_[run_id];
        if (task.masks.size() != 1)
            panic("plan: applyPruning on run %s with %s masks "
                  "(single-bit campaigns only)",
                  run_id, task.masks.size());
        if (cls.verdict == SiteVerdict::Simulate) {
            task.pruneClass = cls.pruneClass;
            kept.push_back(std::move(task));
            ++stats.simulated;
            continue;
        }
        PrunedRun pruned;
        pruned.runId = run_id;
        pruned.verdict = cls.verdict;
        pruned.mask = task.masks[0];
        pruned.cycles = cls.cycles;
        pruned.instructions = cls.instructions;
        pruned.repRunId = cls.repRunId;
        pruned.pruneClass = cls.pruneClass;
        pruned_.push_back(std::move(pruned));
        if (cls.verdict == SiteVerdict::EquivMember)
            ++stats.prunedEquiv;
        else
            ++stats.prunedStatic;
    }
    tasks_ = std::move(kept);
    pruneStats_ = stats;
}

CampaignPlan
CampaignPlan::filtered(
    const std::function<bool(std::uint64_t)> &keep) const
{
    CampaignPlan view;
    view.config_ = config_;
    view.golden_ = golden_;
    view.masks_ = masks_;
    view.totalRuns_ = totalRuns_;
    view.pruneStats_ = pruneStats_; // campaign-wide, never view-local
    for (const RunTask &task : tasks_) {
        if (keep(task.runId))
            view.tasks_.push_back(task);
    }
    view.pruned_.reserve(pruned_.size());
    for (const PrunedRun &pruned : pruned_) {
        if (keep(pruned.runId))
            view.pruned_.push_back(pruned);
    }
    return view;
}

CampaignPlan
CampaignPlan::shardView(const ShardSpec &shard) const
{
    if (shard.count == 0 || shard.index >= shard.count)
        fatal("plan: bad shard %s/%s (need 0 <= index < count)",
              shard.index, shard.count);
    CampaignPlan view = filtered([&shard](std::uint64_t run_id) {
        return run_id % shard.count == shard.index;
    });

    // An equivalence-class member stranded without its representative
    // (the rep's runId lands in another shard) is promoted back to a
    // real task: simulating it yields a record byte-identical to the
    // rep's, so the shard stream still merges into the unsharded
    // bytes.
    std::vector<PrunedRun> kept;
    std::vector<RunTask> promoted;
    for (const PrunedRun &pruned : view.pruned_) {
        if (pruned.verdict == SiteVerdict::EquivMember &&
            pruned.repRunId % shard.count != shard.index) {
            RunTask task;
            task.runId = pruned.runId;
            task.masks.push_back(pruned.mask);
            task.firstCycle = pruned.mask.cycle;
            task.pruneClass = pruned.pruneClass;
            promoted.push_back(std::move(task));
        } else {
            kept.push_back(pruned);
        }
    }
    if (!promoted.empty()) {
        view.pruned_ = std::move(kept);
        for (RunTask &task : promoted)
            view.tasks_.push_back(std::move(task));
        std::sort(view.tasks_.begin(), view.tasks_.end(),
                  [](const RunTask &a, const RunTask &b) {
                      return a.runId < b.runId;
                  });
    }
    return view;
}

CampaignPlan
CampaignPlan::withoutRuns(
    const std::unordered_set<std::uint64_t> &completed) const
{
    for (const std::uint64_t run_id : completed) {
        const bool known =
            std::any_of(tasks_.begin(), tasks_.end(),
                        [run_id](const RunTask &task) {
                            return task.runId == run_id;
                        }) ||
            std::any_of(pruned_.begin(), pruned_.end(),
                        [run_id](const PrunedRun &pruned) {
                            return pruned.runId == run_id;
                        });
        if (!known)
            fatal("plan: completed run %s is not part of this "
                  "campaign%s",
                  run_id,
                  tasks_.size() + pruned_.size() != totalRuns_
                      ? " shard (resume file and --shard disagree?)"
                      : " (resume file from another campaign?)");
    }
    return filtered([&completed](std::uint64_t run_id) {
        return completed.count(run_id) == 0;
    });
}

syskit::RunRecord
staticRecord(const PrunedRun &pruned, const syskit::RunRecord &golden)
{
    switch (pruned.verdict) {
      case SiteVerdict::InvalidEntry:
      case SiteVerdict::DeadOverwrite: {
        syskit::RunRecord stop;
        stop.earlyStopMasked = true;
        stop.earlyStopReason =
            pruned.verdict == SiteVerdict::InvalidEntry
                ? "invalid-entry"
                : "overwritten-before-read";
        stop.cycles = pruned.cycles;
        stop.instructions = pruned.instructions;
        return stop;
      }
      case SiteVerdict::GoldenRun:
        // The fault is never observed: the run completes as the
        // golden record.
        return golden;
      default:
        panic("staticRecord: run %s is not statically classified",
              pruned.runId);
    }
}

bool
planPrunes(const CampaignConfig &config)
{
    // The static verdicts replicate the dispatcher's early-stop
    // records byte-for-byte, so classification is only sound when
    // both early-stop rules are on and every run is a single-bit
    // transient.
    return config.prune &&
           config.population == Population::SingleBit &&
           config.faultType == dfi::FaultType::Transient &&
           config.earlyStopInvalidEntry && config.earlyStopOverwrite;
}

CampaignPlan
planCampaign(const CampaignConfig &config,
             const syskit::RunRecord &golden, uarch::OooCore &probe,
             const GoldenTrace *trace)
{
    // Stage 1: enumerate.  Sampled campaigns derive the run count
    // from the statistical parameters and draw random masks;
    // exhaustive campaigns enumerate every bit x cycle site.
    std::uint64_t runs = 0;
    std::vector<dfi::FaultMask> masks;
    if (config.exhaustive) {
        masks = enumerateExhaustive(config, golden, probe, runs);
    } else {
        runs = config.numInjections;
        if (runs == 0) {
            const std::uint64_t population =
                componentBits(config.component, probe) * golden.cycles;
            runs = requiredInjections(population, config.confidence,
                                      config.margin);
            if (runs > kMaxCampaignRuns)
                fatal("plan: confidence %s and margin %s call for %s "
                      "runs (cap %s); widen --margin, lower "
                      "--confidence or set --injections",
                      config.confidence, config.margin, runs,
                      kMaxCampaignRuns);
        }

        MaskGenConfig gen;
        gen.component = config.component;
        gen.type = config.faultType;
        gen.population = config.population;
        gen.numRuns = runs;
        gen.maxCycle = golden.cycles;
        gen.intermittentMin = config.intermittentMin;
        gen.intermittentMax = config.intermittentMax;
        gen.seed = config.seed;
        masks = generateMasks(gen, probe);
    }

    CampaignPlan plan(config, golden, std::move(masks), runs);

    // Stages 2-4: classify, dedupe, prune — when the config admits
    // it.
    if (planPrunes(config) && runs > 0) {
        const std::vector<dfi::FaultMask> &all = plan.masks();
        if (all.size() != runs)
            panic("plan: %s masks for %s single-bit runs", all.size(),
                  runs);
        std::vector<FaultSite> sites(runs);
        for (std::uint64_t i = 0; i < runs; ++i) {
            const dfi::FaultMask &mask = all[i];
            if (mask.runId != i)
                panic("plan: mask %s out of runId order", i);
            sites[i] = FaultSite{i, mask.structure, mask.entry,
                                 mask.bit, mask.cycle};
        }
        // Without a cached trace, build one: the probe has not ticked
        // yet (mask generation only reads geometry), so it doubles as
        // the trace core.
        GoldenTrace built;
        if (trace == nullptr) {
            built = traceGoldenRun(
                probe, golden, resolveComponent(config.component, probe));
            trace = &built;
        }
        plan.applyPruning(classifySites(*trace, golden, sites));
    }
    return plan;
}

} // namespace dfi::inject
