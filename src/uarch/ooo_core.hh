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
#include <functional>
#include <optional>
#include <string>
#include <unordered_set>
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
};

/** A decoded-and-predicted instruction waiting for rename. */
struct FetchedInst
{
    isa::MacroOp op;
    std::uint32_t pc = 0;
    std::uint32_t predNextPc = 0;
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

/**
 * Receives every change of the occupancy state entryLive() reads from
 * the core itself: the physical-register free flags and the issue,
 * load and store queue busy flags.  Cache lines go live through their
 * valid arrays, whose writes an AccessObserver already sees.  The
 * golden-trace builder (inject/prune.hh) re-evaluates entryLive()
 * only for the entries reported here, instead of scanning every
 * entry every cycle.
 */
class LivenessSink
{
  public:
    virtual ~LivenessSink() = default;
    /** entryLive(id, entry) may have changed during this tick. */
    virtual void onLivenessChange(dfi::StructureId id,
                                  std::uint32_t entry) = 0;
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
     * Attach (or detach with nullptr) the liveness sink.  Not owned.
     * Like an array's access observer it taps the live core only:
     * copies (checkpoints, snapshots) start without one, so a core
     * may be snapshotted while a trace is attached.
     */
    void setLivenessSink(LivenessSink *sink) { livenessSink_.sink = sink; }

    /**
     * Conservative upper bound on the bytes a checkpoint copy of this
     * core can come to own (COW pages count at full materialisation).
     * Used by the checkpoint store's memory budget; approximate — the
     * memory image and cache arrays dominate by construction.
     */
    std::uint64_t approxStateBytes() const;

    /** Receives one copy-on-write page: its payload and size. */
    using PageVisitor =
        std::function<void(const void *page, std::size_t bytes)>;

    /**
     * Call `visit` for every copy-on-write page of the core's arrays
     * and guest memory (CowBuffer::forEachPage): a page a copy still
     * shares with its source is reported at the same address.
     */
    void forEachPage(const PageVisitor &visit) const;

    /**
     * Bytes this core keeps alive that `pages` does not hold yet: the
     * core object and the heap buffers it owns outright (ROB, fetch
     * ring, rename state, predictor tables, cache and BTB books, page
     * tables, OS output, run record), plus every page forEachPage()
     * reports that is not in `pages`, which gains it.  Summed over a
     * set of snapshots with one `pages`, a shared page is charged
     * once (CheckpointStore::heldBytes).
     */
    std::uint64_t heldBytes(std::unordered_set<const void *> &pages) const;

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

    /**
     * ROB slot `offset` entries after the head.  robHead_ and offset
     * are both below robEntries, so one subtraction wraps the ring.
     */
    std::uint32_t
    robIndex(std::uint32_t offset) const
    {
        const std::uint32_t slot = robHead_ + offset;
        return slot < cfg_.robEntries ? slot : slot - cfg_.robEntries;
    }

    /** Inverse of robIndex(): a valid uop's offset is its age rank. */
    std::uint32_t
    robOffset(std::uint32_t slot) const
    {
        return slot >= robHead_ ? slot - robHead_
                                : slot + cfg_.robEntries - robHead_;
    }

    /** iqBusy_ bit of one IQ slot. */
    static std::uint64_t
    iqBit(int slot)
    {
        return std::uint64_t{1} << slot;
    }
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

    /**
     * Report a change of physFree_/iqBusy_/lqBusy_/sqBusy_ to the
     * liveness sink.  Every assignment to those flags after
     * construction must call it (DESIGN.md section 13).
     */
    void
    noteLive(dfi::StructureId id, int entry) const
    {
        if (livenessSink_.sink != nullptr)
            livenessSink_.sink->onLivenessChange(
                id, static_cast<std::uint32_t>(entry));
    }
    /** The structure lqBusy_ guards: the unified LSQ or the LQ. */
    dfi::StructureId
    loadQueueId() const
    {
        return cfg_.unifiedLsq ? dfi::StructureId::LoadStoreQueue
                               : dfi::StructureId::LoadQueue;
    }

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
    std::uint64_t iqBusy_ = 0;    //!< bit s: IQ slot s is occupied

    // Load/store queues: slot occupancy plus injectable data arrays.
    dfi::FaultableArray lsqData_; //!< unified (MARSS) data fields
    dfi::FaultableArray lqData_;  //!< split load queue "data" fields
    dfi::FaultableArray sqData_;  //!< split store queue data fields
    std::vector<bool> lqBusy_, sqBusy_;

    // Stall bookkeeping.
    std::uint64_t frontendStallUntil_ = 0;

    /**
     * Not state: null except while a golden trace is being built.
     * Copying yields null and moving transfers the tap, as
     * FaultableArray does with its observer.
     */
    struct SinkSlot
    {
        LivenessSink *sink = nullptr;

        SinkSlot() = default;
        SinkSlot(const SinkSlot &) {}
        SinkSlot &
        operator=(const SinkSlot &)
        {
            sink = nullptr;
            return *this;
        }
        SinkSlot(SinkSlot &&) = default;
        SinkSlot &operator=(SinkSlot &&) = default;
    };
    SinkSlot livenessSink_;
};

} // namespace dfi::uarch

#endif // DFI_UARCH_OOO_CORE_HH
