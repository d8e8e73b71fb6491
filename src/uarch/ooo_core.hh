/**
 * @file
 * Cycle-level out-of-order core.
 *
 * One engine implements the classic OoO pipeline — fetch (through
 * L1I, predictors, RAS), rename (physical register file, free list),
 * dispatch (ROB, issue queue with an injectable packed payload array,
 * load/store queues with injectable data-field arrays), issue
 * (oldest-first, FU-constrained), execute (latencies, DTLB, L1D/L2
 * accesses, store-to-load forwarding, memory-order violations),
 * writeback (mispredict recovery by ROB walk) and in-order commit
 * (stores drain to the cache, syscalls serialize, exceptions
 * resolve) — and the CoreConfig policies instantiate the paper's
 * three machines on top of it.
 *
 * Everything architecturally or microarchitecturally stateful is a
 * value member, so checkpointing a core is plain copy construction —
 * and because the bulk stores (guest memory, FaultableArrays) sit in
 * copy-on-write pages, that copy shares the bulk state and costs
 * O(touched pages) rather than O(core size).
 *
 * The core is UB-free under arbitrary corruption of its injectable
 * arrays: every index read back from an array passes a
 * checkInvariant() checkpoint whose outcome (Assert / simulator Crash
 * / tolerate) depends on the configured AssertPolicy, reproducing the
 * paper's Remark 8.
 */

#ifndef DFI_UARCH_OOO_CORE_HH
#define DFI_UARCH_OOO_CORE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/image.hh"
#include "isa/macroop.hh"
#include "storage/structure_id.hh"
#include "syskit/os.hh"
#include "syskit/run_record.hh"
#include "uarch/branch.hh"
#include "uarch/core_config.hh"
#include "uarch/hier.hh"
#include "uarch/tlb.hh"

namespace dfi::uarch
{

/** One in-flight instruction (ROB entry). */
struct Uop
{
    static constexpr std::uint16_t kNoPhys = 0xffff;
    static constexpr std::uint8_t kNoArch = 0xff;

    enum class Stage : std::uint8_t
    {
        InIq,       //!< waiting in the issue queue
        Exec,       //!< executing on a functional unit
        Mem,        //!< waiting for the data access
        Done,       //!< result available, pre-writeback
        WrittenBack //!< committed state pending retirement
    };

    enum class Exc : std::uint8_t
    {
        None,
        Illegal,
        Halt,
        MemFault
    };

    bool valid = false;
    isa::MacroOp op;
    std::uint32_t pc = 0;
    std::uint32_t npc = 0;       //!< pc + length
    std::uint64_t seq = 0;
    Stage stage = Stage::InIq;
    std::uint64_t readyCycle = 0;

    // Renaming.
    std::uint8_t archDst = kNoArch;
    std::uint8_t archDst2 = kNoArch; //!< implicit SP / flags dest
    std::uint16_t physDst = kNoPhys;
    std::uint16_t physDst2 = kNoPhys;
    std::uint16_t oldPhys = kNoPhys;
    std::uint16_t oldPhys2 = kNoPhys;
    std::uint16_t physSrc1 = kNoPhys;
    std::uint16_t physSrc2 = kNoPhys;

    // Issue-time captured state.
    std::uint32_t srcVal1 = 0;
    std::uint32_t srcVal2 = 0;
    std::uint16_t issuedPhysDst = kNoPhys; //!< read from the IQ array

    // Results.
    std::uint32_t result = 0;  //!< primary destination value
    std::uint32_t result2 = 0; //!< implicit destination value

    // Memory.
    bool isLoad = false;
    bool isStore = false;
    bool addrResolved = false;
    bool loadDone = false;
    std::uint32_t memVA = 0;
    std::uint32_t memPA = 0;
    std::uint8_t memWidth = 4;
    int lsqSlot = -1; //!< slot in its (load or store or unified) queue
    int iqSlot = -1;

    // Control flow.
    bool isBranch = false;
    std::uint32_t predNextPc = 0;
    bool actualTaken = false;
    std::uint32_t actualNextPc = 0;

    // Exceptions / DUE evidence (evaluated if the uop commits).
    Exc exc = Exc::None;
    bool dueDivZero = false;
    bool dueMisaligned = false;

    bool isSyscall = false;

    /** Serialize all fields (cache spill). */
    template <class Ar> void serializeState(Ar &ar);
};

/** A decoded-and-predicted instruction waiting for rename. */
struct FetchedInst
{
    isa::MacroOp op;
    std::uint32_t pc = 0;
    std::uint32_t predNextPc = 0;

    /** Serialize all fields (cache spill). */
    template <class Ar> void serializeState(Ar &ar);
};

/**
 * Pipeline events the core counts, named in its StatSet by the
 * lower-case form of the enumerator (e.g. "issued_loads").
 */
enum class CoreStat : std::uint8_t
{
    FetchedInstructions,
    FetchFaults,
    BranchesPredicted,
    RenamedInstructions,
    IssuedInstructions,
    IssuedLoads,
    IssuedStores,
    StoreToLoadForwards,
    MemoryOrderViolations,
    BranchMispredictions,
    PipelineFlushes,
    CommittedLoads,
    CommittedStores,
    CommittedBranches,
    Syscalls,
    KernelTicks,
    Count
};

/** The core. */
class OooCore
{
  public:
    OooCore(const CoreConfig &config, const isa::Image &image);

    /**
     * Advance one cycle.
     * @return false once the run has terminated (record() is final).
     */
    bool tick();

    /** True when the run has terminated. */
    bool finished() const { return finished_; }

    /** Outcome record (valid once finished, or after forceTimeout). */
    const syskit::RunRecord &record() const { return record_; }

    /** Terminate now with the Timeout classification. */
    void forceTimeout();

    std::uint64_t cycle() const { return cycle_; }
    std::uint64_t committedInstructions() const { return committed_; }

    /**
     * Named view of the event counters of the core and of its caches,
     * TLBs and BTBs: every nonzero counter, plus `cycles` and
     * `committed_instructions` once the run has finished.  Built on
     * each call; record().stats holds the copy built at finish.
     */
    dfi::StatSet stats() const;
    const CoreConfig &config() const { return cfg_; }

    /**
     * Injectable-array resolver for the fault framework; returns
     * nullptr when this configuration has no such structure (e.g. the
     * unified LSQ on a split-queue core).
     */
    dfi::FaultableArray *arrayFor(dfi::StructureId id);

    /**
     * Early-stop rule (i): true when `entry` of `id` currently holds
     * live content whose corruption could matter.
     */
    bool entryLive(dfi::StructureId id, std::uint32_t entry);

    /**
     * Conservative upper bound on the bytes a checkpoint copy of this
     * core can come to own (COW pages count at full materialisation).
     * Used by the checkpoint store's memory budget; approximate — the
     * memory image and cache arrays dominate by construction.
     */
    std::uint64_t approxStateBytes() const;

    /**
     * Serialize every dynamic member (cache spill).  Geometry lives in
     * CoreConfig: loading requires a core freshly constructed from the
     * same (config, image) pair, whose state is then overwritten.
     */
    template <class Ar> void serializeState(Ar &ar);

  private:
    // Pipeline stages (called in reverse order inside tick()).
    void commitStage();
    void writebackStage();
    void executeStage();
    void issueStage();
    void renameStage();
    void fetchStage();
    void kernelTick();

    // Helpers.
    Uop &rob(std::uint32_t slot) { return rob_[slot]; }
    std::uint32_t robIndex(std::uint32_t offset) const;
    void flushFrom(std::uint64_t first_bad_seq, std::uint32_t new_pc);
    void flushAllYounger(std::uint64_t seq, std::uint32_t new_pc);
    std::uint16_t allocPhys();
    void freePhys(std::uint16_t reg);
    std::uint32_t readPhys(std::uint16_t reg);
    void writePhys(std::uint16_t reg, std::uint32_t value);
    void check(bool ok, CheckSeverity severity, const char *what) const;
    void finish(syskit::Termination term, const std::string &detail);
    bool commitOne();
    void executeMemUop(Uop &uop);
    bool resolveLoad(Uop &uop);
    void storeViolationScan(const Uop &store);
    void predictAndRedirect(FetchedInst &fetched);
    void fetchPush(const FetchedInst &fetched);
    void doSyscall(Uop &uop);
    dfi::FaultableArray &lsqArrayFor(const Uop &uop, int *entry) const;

    CoreConfig cfg_;
    dfi::Counters<CoreStat> counters_;
    syskit::RunRecord record_;
    syskit::MiniOs os_;
    bool finished_ = false;

    std::uint64_t cycle_ = 0;
    std::uint64_t seqGen_ = 1;
    std::uint64_t committed_ = 0;

    // Memory system.
    MemHierarchy hier_;
    Tlb itlb_, dtlb_;

    // Front end.
    TournamentPredictor predictor_;
    Btb btb_, btbIndirect_;
    Ras ras_;
    std::uint32_t fetchPc_ = 0;
    std::uint64_t fetchReadyCycle_ = 0;
    // Fetch queue: a ring of 3 x fetchWidth slots, sized once.  Fetch
    // stops at 2 x fetchWidth queued and adds at most fetchWidth per
    // cycle, so the ring never overflows.
    std::vector<FetchedInst> fetchRing_;
    std::uint32_t fetchHead_ = 0;
    std::uint32_t fetchCount_ = 0;

    // Register state.
    dfi::FaultableArray intRf_;
    dfi::FaultableArray fpRf_;
    std::vector<std::uint16_t> renameMap_; //!< speculative map
    std::vector<std::uint16_t> commitMap_; //!< retirement map
    std::vector<std::uint16_t> freeList_;
    std::vector<bool> physFree_;
    std::vector<bool> physReady_;

    // Windows.
    std::vector<Uop> rob_;
    std::uint32_t robHead_ = 0;
    std::uint32_t robCount_ = 0;

    dfi::FaultableArray iqArray_; //!< packed payload (injectable)
    std::vector<bool> iqBusy_;

    // Load/store queues: slot occupancy plus injectable data arrays.
    dfi::FaultableArray lsqData_; //!< unified (MARSS) data fields
    dfi::FaultableArray lqData_;  //!< split load queue "data" fields
    dfi::FaultableArray sqData_;  //!< split store queue data fields
    std::vector<bool> lqBusy_, sqBusy_;

    // Stall bookkeeping.
    std::uint64_t frontendStallUntil_ = 0;

    // issueStage() scratch, sized once to iqEntries.  Not state: it is
    // rebuilt every cycle and not serialized.
    struct IssueCandidate
    {
        std::uint32_t slot;
        std::uint64_t seq;
    };
    std::vector<IssueCandidate> issueCandidates_;
};

} // namespace dfi::uarch

#endif // DFI_UARCH_OOO_CORE_HH
