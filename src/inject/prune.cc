#include "inject/prune.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "inject/checkpoint.hh"
#include "storage/faultable_array.hh"
#include "uarch/ooo_core.hh"

namespace dfi::inject
{

namespace
{

using dfi::StructureId;

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

/**
 * The valid array whose writes change OooCore::entryLive() of a cache
 * structure's lines; NumStructures for the structures whose liveness
 * the core's LivenessSink reports, or that never change.
 */
StructureId
validArrayGating(StructureId id)
{
    switch (id) {
      case StructureId::L1DData:
      case StructureId::L1DTag:
        return StructureId::L1DValid;
      case StructureId::L1IData:
      case StructureId::L1ITag:
        return StructureId::L1IValid;
      case StructureId::L2Data:
      case StructureId::L2Tag:
        return StructureId::L2Valid;
      default:
        return StructureId::NumStructures;
    }
}

/** One traced structure while the probe runs. */
struct Recording
{
    StructureId structure = StructureId::IntRegFile;
    std::vector<std::uint32_t> accessEntry; //!< parallel to accessLog
    std::vector<TraceAccess> accessLog;     //!< program order

    std::vector<bool> liveAtStart;
    std::vector<bool> live;    //!< entryLive() at the latest check
    std::vector<bool> touched; //!< queued in `pending`
    std::vector<std::uint32_t> pending;
    std::vector<std::uint32_t> changeEntry; //!< parallel to changeLog
    std::vector<std::uint32_t> changeLog;   //!< check cycles

    void
    touch(std::size_t entry)
    {
        if (entry >= touched.size())
            panic("prune: liveness report for entry %s of '%s' (%s "
                  "entries)",
                  entry, dfi::structureName(structure), touched.size());
        if (!touched[entry]) {
            touched[entry] = true;
            pending.push_back(static_cast<std::uint32_t>(entry));
        }
    }
};

/**
 * Observer on one array: records its accesses when it is a traced
 * structure, and queues the lines whose liveness its writes may
 * change when it is the valid array of traced cache structures.
 */
class ArrayTap final : public dfi::AccessObserver
{
  public:
    explicit ArrayTap(const std::uint32_t &cycle) : cycle_(cycle) {}

    Recording *recorded = nullptr;
    std::vector<Recording *> gated;

    void
    onAccess(const dfi::FaultableArray &, std::size_t entry,
             std::size_t bit, std::size_t width,
             bool is_write) override
    {
        if (recorded != nullptr) {
            recorded->accessEntry.push_back(
                static_cast<std::uint32_t>(entry));
            recorded->accessLog.push_back(TraceAccess{
                cycle_, static_cast<std::uint16_t>(bit),
                static_cast<std::uint16_t>(width << 1 |
                                           (is_write ? 1 : 0))});
        }
        if (is_write) {
            for (Recording *rec : gated)
                rec->touch(entry);
        }
    }

  private:
    const std::uint32_t &cycle_;
};

/** Routes the core's liveness reports to the traced structures. */
class LivenessRouter final : public uarch::LivenessSink
{
  public:
    std::array<Recording *,
               static_cast<std::size_t>(StructureId::NumStructures)>
        byId{};

    void
    onLivenessChange(StructureId id, std::uint32_t entry) override
    {
        if (Recording *rec = byId[static_cast<std::size_t>(id)])
            rec->touch(entry);
    }
};

/**
 * Stable counting sort of an (entry, value) log into per-entry offsets
 * plus one contiguous array; each entry keeps its program order.
 */
template <class T>
void
groupByEntry(std::size_t entries, const std::vector<std::uint32_t> &entry_of,
             const std::vector<T> &log, std::vector<std::uint32_t> &begin,
             std::vector<T> &out)
{
    if (log.size() > kU32Max)
        fatal("prune: %s trace events overflow the trace offsets",
              log.size());
    begin.assign(entries + 1, 0);
    for (const std::uint32_t entry : entry_of)
        ++begin[entry + 1];
    for (std::size_t e = 0; e < entries; ++e)
        begin[e + 1] += begin[e];
    std::vector<std::uint32_t> next(begin.begin(), begin.end() - 1);
    out.resize(log.size());
    for (std::size_t i = 0; i < log.size(); ++i)
        out[next[entry_of[i]]++] = log[i];
}

} // namespace

bool
StructureTrace::liveAt(std::uint32_t entry, std::uint64_t cycle) const
{
    const auto first = changes.begin() + changeBegin[entry];
    const auto last = changes.begin() + changeBegin[entry + 1];
    const auto flips = std::upper_bound(first, last, cycle) - first;
    return liveAtStart[entry] != (flips % 2 == 1);
}

const StructureTrace *
GoldenTrace::find(StructureId id) const
{
    for (const StructureTrace &trace : structures) {
        if (trace.structure == id)
            return &trace;
    }
    return nullptr;
}

std::uint64_t
GoldenTrace::structureBytes() const
{
    std::uint64_t bytes = sizeof(GoldenTrace);
    for (const StructureTrace &trace : structures) {
        bytes += sizeof(StructureTrace);
        bytes += trace.accesses.size() * sizeof(TraceAccess);
        bytes += (trace.accessBegin.size() + trace.changeBegin.size() +
                  trace.changes.size()) *
                 sizeof(std::uint32_t);
        bytes += (trace.liveAtStart.size() + 7) / 8;
    }
    return bytes;
}

GoldenTrace
traceGoldenRun(uarch::OooCore &probe, const syskit::RunRecord &golden,
               const std::vector<StructureId> &structures,
               CheckpointStore *store)
{
    if (probe.cycle() != 0)
        panic("prune: trace core already ticked (cycle %s)",
              probe.cycle());
    if (golden.cycles == 0)
        panic("prune: zero-length golden run");
    if (golden.cycles >= kU32Max)
        panic("prune: golden run of %s cycles overflows the trace's "
              "cycle fields",
              golden.cycles);

    // Attach one tap per array: the traced structures record their
    // accesses, the valid arrays of traced cache structures queue the
    // lines they fill, and the core reports its own occupancy flags.
    std::uint32_t current_cycle = 0;
    std::vector<Recording> recordings(structures.size());
    std::map<dfi::FaultableArray *, ArrayTap> taps;
    LivenessRouter router;
    for (std::size_t i = 0; i < structures.size(); ++i) {
        const StructureId id = structures[i];
        dfi::FaultableArray *array = probe.arrayFor(id);
        if (array == nullptr)
            panic("prune: structure '%s' has no array on this core",
                  dfi::structureName(id));
        if (array->bitsPerEntry() >= (1u << 15))
            panic("prune: %s-bit entries of '%s' overflow the trace's "
                  "bit fields",
                  array->bitsPerEntry(), dfi::structureName(id));
        Recording &rec = recordings[i];
        rec.structure = id;
        const std::size_t entries = array->numEntries();
        rec.live.resize(entries);
        for (std::size_t e = 0; e < entries; ++e)
            rec.live[e] =
                probe.entryLive(id, static_cast<std::uint32_t>(e));
        rec.liveAtStart = rec.live;
        rec.touched.assign(entries, false);
        taps.try_emplace(array, current_cycle).first->second.recorded =
            &rec;
        router.byId[static_cast<std::size_t>(id)] = &rec;
        const StructureId valid = validArrayGating(id);
        if (valid != StructureId::NumStructures)
            taps.try_emplace(probe.arrayFor(valid), current_cycle)
                .first->second.gated.push_back(&rec);
    }
    // A pass that traces nothing (it only feeds `store`) needs no
    // liveness reports and no committed-instructions table.
    const bool tracing = !structures.empty();
    for (auto &[array, tap] : taps)
        array->setObserver(&tap);
    if (tracing)
        probe.setLivenessSink(&router);

    std::shared_ptr<std::vector<std::uint32_t>> committed;
    if (tracing) {
        committed = std::make_shared<std::vector<std::uint32_t>>(
            golden.cycles + 1);
        (*committed)[0] =
            static_cast<std::uint32_t>(probe.committedInstructions());
    }
    std::uint64_t terminal_cycle = 0;
    while (true) {
        const std::uint64_t next_cycle = probe.cycle() + 1;
        if (next_cycle > golden.cycles)
            fatal("prune: trace ran past the golden run length "
                  "(cycle %s > %s) — nondeterministic model?",
                  next_cycle, golden.cycles);
        current_cycle = static_cast<std::uint32_t>(next_cycle);
        if (!probe.tick()) {
            terminal_cycle = next_cycle;
            break;
        }
        if (store != nullptr)
            store->observe(probe);
        if (!tracing)
            continue;
        if (probe.committedInstructions() > kU32Max)
            panic("prune: %s committed instructions overflow the trace",
                  probe.committedInstructions());
        (*committed)[probe.cycle()] =
            static_cast<std::uint32_t>(probe.committedInstructions());

        // Early-stop rule (i) reads the state after this tick at check
        // cycle next_cycle + 1.  Only the entries reported during the
        // tick can have changed; a change that reverted within the
        // tick nets out.
        for (Recording &rec : recordings) {
            for (const std::uint32_t entry : rec.pending) {
                rec.touched[entry] = false;
                const bool live = probe.entryLive(rec.structure, entry);
                if (live == rec.live[entry])
                    continue;
                rec.live[entry] = live;
                rec.changeEntry.push_back(entry);
                rec.changeLog.push_back(
                    static_cast<std::uint32_t>(next_cycle + 1));
            }
            rec.pending.clear();
        }
    }
    for (auto &[array, tap] : taps)
        array->setObserver(nullptr);
    if (tracing)
        probe.setLivenessSink(nullptr);

    // The trace is only usable if it reproduced the golden run
    // exactly; anything else means the model is nondeterministic or
    // the probe was configured differently.
    const syskit::RunRecord &traced = probe.record();
    if (traced.term != syskit::Termination::Exited ||
        traced.cycles != golden.cycles ||
        traced.instructions != golden.instructions ||
        traced.output != golden.output) {
        fatal("prune: traced golden pass diverged from the golden run "
              "(ended at cycle %s, the golden run at %s)",
              traced.cycles, golden.cycles);
    }

    GoldenTrace trace;
    trace.terminalCycle = terminal_cycle;
    trace.committedAfter = std::move(committed);
    trace.structures.resize(recordings.size());
    for (std::size_t i = 0; i < recordings.size(); ++i) {
        Recording &rec = recordings[i];
        StructureTrace &out = trace.structures[i];
        const std::size_t entries = rec.touched.size();
        out.structure = rec.structure;
        groupByEntry(entries, rec.accessEntry, rec.accessLog,
                     out.accessBegin, out.accesses);
        out.liveAtStart = std::move(rec.liveAtStart);
        groupByEntry(entries, rec.changeEntry, rec.changeLog,
                     out.changeBegin, out.changes);
    }
    return trace;
}

std::vector<SiteClassification>
classifySites(const GoldenTrace &trace, const syskit::RunRecord &golden,
              const std::vector<FaultSite> &sites)
{
    std::vector<SiteClassification> out(sites.size());
    if (sites.empty())
        return out;
    if (trace.committedAfter == nullptr ||
        trace.committedAfter->size() != golden.cycles + 1)
        panic("prune: trace does not cover the golden run (%s cycles)",
              golden.cycles);
    const std::vector<std::uint32_t> &committed_after =
        *trace.committedAfter;

    // Group sites by (structure, entry, bit) so each group filters
    // its entry's accesses down to the covering ones exactly once.
    std::map<std::tuple<StructureId, std::uint32_t, std::uint32_t>,
             std::vector<std::size_t>>
        groups;
    for (std::size_t i = 0; i < sites.size(); ++i) {
        const FaultSite &site = sites[i];
        if (site.cycle == 0 || site.cycle > golden.cycles)
            panic("prune: site cycle %s outside [1, %s]", site.cycle,
                  golden.cycles);
        groups[{site.structure, site.entry, site.bit}].push_back(i);
    }

    // Equivalence classes, collected across all (structure, entry,
    // bit) groups.  Within one group the first covering read's
    // position in the entry's access list keys the class; across
    // groups the same access covers *different* bits, so classes
    // never merge across groups.
    std::vector<std::vector<std::size_t>> real_classes;
    std::vector<std::uint32_t> covering;

    for (const auto &[key, members] : groups) {
        const auto &[structure, entry, bit] = key;
        const StructureTrace *entries = trace.find(structure);
        if (entries == nullptr)
            panic("prune: structure '%s' is not in the trace",
                  dfi::structureName(structure));
        if (std::size_t{entry} + 1 >= entries->accessBegin.size())
            panic("prune: entry %s of '%s' is not in the trace", entry,
                  dfi::structureName(structure));

        // Covering accesses of this bit, in program order (their
        // cycles are nondecreasing, so lower_bound by cycle finds the
        // first one at or after any injection cycle).
        const TraceAccess *accesses =
            entries->accesses.data() + entries->accessBegin[entry];
        const std::uint32_t count = entries->accessBegin[entry + 1] -
                                    entries->accessBegin[entry];
        covering.clear();
        for (std::uint32_t a = 0; a < count; ++a) {
            if (accesses[a].bitLo <= bit &&
                bit < accesses[a].bitLo + accesses[a].width())
                covering.push_back(a);
        }

        std::map<std::uint32_t, std::vector<std::size_t>> classes;
        for (const std::size_t i : members) {
            const FaultSite &site = sites[i];
            SiteClassification &cls = out[i];
            if (!entries->liveAt(entry, site.cycle)) {
                // Early-stop rule (i) fires at next_cycle == c with
                // the core still at cycle c-1.
                cls.verdict = SiteVerdict::InvalidEntry;
                cls.cycles = site.cycle - 1;
                cls.instructions = committed_after[site.cycle - 1];
                continue;
            }
            const auto first = std::lower_bound(
                covering.begin(), covering.end(), site.cycle,
                [accesses](std::uint32_t a, std::uint64_t cycle) {
                    return accesses[a].cycle < cycle;
                });
            if (first == covering.end()) {
                // Never accessed again: the flip is never observed
                // and the run completes as the golden record.
                cls.verdict = SiteVerdict::GoldenRun;
                cls.cycles = golden.cycles;
                cls.instructions = golden.instructions;
                continue;
            }
            const TraceAccess &access = accesses[*first];
            if (access.isWrite()) {
                if (access.cycle == trace.terminalCycle) {
                    // The dispatcher checks the overwrite watch only
                    // after a *successful* tick; a first overwrite
                    // during the terminal tick therefore yields the
                    // completed (golden-identical) record, not an
                    // early stop.
                    cls.verdict = SiteVerdict::GoldenRun;
                    cls.cycles = golden.cycles;
                    cls.instructions = golden.instructions;
                } else {
                    // Early-stop rule (ii) fires right after the tick
                    // the overwrite happened in.
                    cls.verdict = SiteVerdict::DeadOverwrite;
                    cls.cycles = access.cycle;
                    cls.instructions = committed_after[access.cycle];
                }
                continue;
            }
            // First covering access reads the (corrupted) bit: the
            // fault becomes architecturally visible there.  All sites
            // of this bit sharing that first read produce
            // byte-identical runs.
            cls.verdict = SiteVerdict::Simulate;
            classes[*first].push_back(i);
        }
        for (auto &[first_read, class_members] : classes) {
            if (class_members.size() < 2)
                continue;
            std::sort(class_members.begin(), class_members.end(),
                      [&sites](std::size_t a, std::size_t b) {
                          return sites[a].runId < sites[b].runId;
                      });
            real_classes.push_back(std::move(class_members));
        }
    }

    // Collapse classes of two or more sites onto their lowest-runId
    // representative.  Class ids are 1-based, assigned in ascending
    // representative-runId order, so they are deterministic and
    // independent of container iteration order.
    std::sort(real_classes.begin(), real_classes.end(),
              [&sites](const std::vector<std::size_t> &a,
                       const std::vector<std::size_t> &b) {
                  return sites[a[0]].runId < sites[b[0]].runId;
              });
    for (std::size_t c = 0; c < real_classes.size(); ++c) {
        const std::vector<std::size_t> &members = real_classes[c];
        const std::uint64_t class_id = c + 1;
        const std::uint64_t rep_run = sites[members[0]].runId;
        out[members[0]].pruneClass = class_id;
        for (std::size_t m = 1; m < members.size(); ++m) {
            SiteClassification &cls = out[members[m]];
            cls.verdict = SiteVerdict::EquivMember;
            cls.repRunId = rep_run;
            cls.pruneClass = class_id;
        }
    }
    return out;
}

} // namespace dfi::inject
