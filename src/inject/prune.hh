/**
 * @file
 * Static fault classification and equivalence pruning (stage 2+3 of
 * the planning pipeline, plan.hh).
 *
 * The paper pays one full faulty simulation per sampled fault.
 * ARMORY-style pruning makes most of those runs free: a single-bit
 * transient run is cycle-identical to the golden run until the first
 * access that covers the faulted bit at or after the injection cycle,
 * so one instrumented golden re-run — the *trace* — decides most
 * outcomes analytically:
 *
 *  - the target entry is dead at the injection cycle
 *      -> the dispatcher's early-stop rule (i) would fire
 *         ("invalid-entry"; Masked);
 *  - the first covering access is a write before the end of the run
 *      -> early-stop rule (ii) would fire
 *         ("overwritten-before-read"; Masked);
 *  - the bit is never read (never accessed, or first overwritten
 *    during the terminal tick, after the watch check last ran)
 *      -> the run completes byte-identical to the golden record;
 *  - the first covering access is a read
 *      -> the fault is architecturally visible and must be simulated.
 *
 * Sites that must be simulated dedupe further: two sites of the same
 * bit whose first covering read is the *same* trace access produce
 * byte-identical runs (the flip is invisible until that read, and
 * execution is deterministic after it), so they form an equivalence
 * class keyed by (structure, entry, bit, first-read access) and only
 * the lowest-runId representative is simulated.
 *
 * The trace is a value: it records every access of every entry of a
 * component's structures, so one trace classifies any site set of
 * that component, and a prepared program keeps one per component
 * (PreparedCampaign::trace).  Classification is then a pure function
 * of the trace and the sites.
 *
 * The contract — enforced by tests and the CI prune-equivalence leg —
 * is that a pruned campaign's classification artifacts are
 * byte-identical (modulo volatile fields) to the unpruned campaign's.
 */

#ifndef DFI_INJECT_PRUNE_HH
#define DFI_INJECT_PRUNE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/structure_id.hh"
#include "syskit/run_record.hh"

namespace dfi::uarch
{
class OooCore;
} // namespace dfi::uarch

namespace dfi::inject
{

class CheckpointStore;

/** What the static classification decided for one fault site. */
enum class SiteVerdict : std::uint8_t
{
    Simulate,      //!< first covering access reads the bit: run it
    InvalidEntry,  //!< dead entry at injection: early-stop rule (i)
    DeadOverwrite, //!< overwritten before read: early-stop rule (ii)
    GoldenRun,     //!< never read: completes identical to golden
    EquivMember    //!< identical to another site's run (see repRunId)
};

/** Campaign-wide pruning tallies (telemetry `prune` object). */
struct PruneStats
{
    std::uint64_t prunedStatic = 0; //!< invalid-entry/overwrite/golden
    std::uint64_t prunedEquiv = 0;  //!< equivalence-class members
    std::uint64_t simulated = 0;    //!< surviving representatives
};

/** One single-bit transient fault site (stage-1 enumeration output). */
struct FaultSite
{
    std::uint64_t runId = 0;
    dfi::StructureId structure = dfi::StructureId::IntRegFile;
    std::uint32_t entry = 0;
    std::uint32_t bit = 0;
    std::uint64_t cycle = 0; //!< injection cycle, >= 1
};

/** Per-site classification result. */
struct SiteClassification
{
    SiteVerdict verdict = SiteVerdict::Simulate;
    /**
     * For InvalidEntry/DeadOverwrite: the `cycles`/`instructions`
     * fields of the early-stop record the dispatcher would have
     * produced.  Unused otherwise.
     */
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    /** For EquivMember: the representative's runId. */
    std::uint64_t repRunId = ~0ull;
    /**
     * 1-based equivalence-class id, assigned in ascending
     * representative-runId order; 0 for sites outside any class.
     * Set on both the representative (verdict Simulate) and its
     * members (verdict EquivMember).
     */
    std::uint64_t pruneClass = 0;
};

/** One watch-visible access of a traced entry, packed into 8 bytes. */
struct TraceAccess
{
    std::uint32_t cycle = 0;      //!< the tick it happened in
    std::uint16_t bitLo = 0;      //!< first bit covered
    std::uint16_t widthWrite = 0; //!< width << 1 | is_write

    std::uint32_t width() const { return widthWrite >> 1; }
    bool isWrite() const { return (widthWrite & 1) != 0; }
};

/**
 * One structure's share of a golden trace.  Entry e's accesses are
 * `accesses[accessBegin[e] .. accessBegin[e + 1])`, in program order;
 * its liveness changes are laid out the same way.
 */
struct StructureTrace
{
    dfi::StructureId structure = dfi::StructureId::IntRegFile;
    std::vector<std::uint32_t> accessBegin; //!< numEntries + 1 offsets
    std::vector<TraceAccess> accesses;

    /** entryLive() of each entry before tick 1. */
    std::vector<bool> liveAtStart;
    std::vector<std::uint32_t> changeBegin; //!< numEntries + 1 offsets
    /**
     * Per entry, ascending: every check cycle c at which entryLive()
     * — read after tick c-1 and before tick c, where early-stop rule
     * (i) reads it — differs from its value at check cycle c-1.
     */
    std::vector<std::uint32_t> changes;

    /** entryLive(structure, entry) as rule (i) sees it at `cycle`. */
    bool liveAt(std::uint32_t entry, std::uint64_t cycle) const;
};

/**
 * Everything the classifier needs from one instrumented golden run of
 * a component.  Immutable once built; any number of threads may
 * classify from it.
 */
struct GoldenTrace
{
    std::vector<StructureTrace> structures;
    std::uint64_t terminalCycle = 0; //!< the tick that ended the run
    /**
     * Instructions committed after each tick; index 0 is the reset
     * state.  The same for every component of one program, so the
     * traces of one prepared state share one table.
     */
    std::shared_ptr<const std::vector<std::uint32_t>> committedAfter;

    /** The trace of `id`, or nullptr when it was not traced. */
    const StructureTrace *find(dfi::StructureId id) const;

    /** Bytes held by the per-structure tables (committedAfter not
     *  included: its owner charges it once). */
    std::uint64_t structureBytes() const;
};

/**
 * Tick `probe` through one instrumented golden run and record the
 * trace of `structures`, which may span several components.
 * When `store` is given, it observes the probe after every tick that
 * does not end the run, as a golden pass feeds a CheckpointStore, so
 * the same pass also captures the restore store; its base must
 * already be captured.  Snapshots carry no taps.  With no
 * `structures` the pass only feeds `store` and checks the run: the
 * result has no committed-instructions table.
 *
 * `probe` must be a core of the campaign's exact configuration and
 * image at cycle 0 (freshly constructed, or a copy of the base
 * checkpoint).  fatal()s if the traced run does not reproduce
 * `golden`.
 */
GoldenTrace traceGoldenRun(uarch::OooCore &probe,
                           const syskit::RunRecord &golden,
                           const std::vector<dfi::StructureId> &structures,
                           CheckpointStore *store = nullptr);

/**
 * Classify every site from a golden trace that covers the sites'
 * structures.  Sites must be single-bit transients with injection
 * cycles in [1, golden.cycles].
 *
 * The returned vector is indexed like `sites`.
 */
std::vector<SiteClassification>
classifySites(const GoldenTrace &trace, const syskit::RunRecord &golden,
              const std::vector<FaultSite> &sites);

} // namespace dfi::inject

#endif // DFI_INJECT_PRUNE_HH
