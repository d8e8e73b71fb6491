#include "uarch/ooo_core.hh"

#include <algorithm>
#include <span>
#include <string>

#include "common/logging.hh"
#include "isa/arm.hh"
#include "isa/x86.hh"
#include "syskit/layout.hh"

namespace dfi::uarch
{

using isa::AluFunc;
using isa::Cond;
using isa::Flags;
using isa::IsaKind;
using isa::MacroOp;
using isa::OpKind;

namespace
{

/** Packed IQ payload layout. */
constexpr std::size_t kIqDstBits = 9;
constexpr std::size_t kIqSrcBits = 9;
constexpr std::size_t kIqRobBits = 7;
constexpr std::size_t kIqPayloadBits =
    kIqDstBits + 2 * kIqSrcBits + kIqRobBits; // 34

/** Kernel code/data region used by kernel-mode accesses. */
constexpr std::uint32_t kKernelBase = 0x100;

/** StatSet names of the CoreStat counters, in enum order. */
const char *const kCoreStatNames[] = {
    "fetched_instructions",
    "fetch_faults",
    "branches_predicted",
    "renamed_instructions",
    "issued_instructions",
    "issued_loads",
    "issued_stores",
    "store_to_load_forwards",
    "memory_order_violations",
    "branch_mispredictions",
    "pipeline_flushes",
    "committed_loads",
    "committed_stores",
    "committed_branches",
    "syscalls",
    "kernel_ticks",
};

bool
rangesOverlap(std::uint32_t a, std::uint32_t aw, std::uint32_t b,
              std::uint32_t bw)
{
    return a < b + bw && b < a + aw;
}

} // namespace

OooCore::OooCore(const CoreConfig &config, const isa::Image &image)
    : cfg_(config),
      hier_(config.hier, image.makeMemory()),
      itlb_("itlb", config.tlbEntries),
      dtlb_("dtlb", config.tlbEntries),
      predictor_(config.chooserIndex),
      btb_(config.btb),
      btbIndirect_(config.splitBtb ? config.btbIndirect
                                   : BtbConfig{"btb_indirect", 1, 1}),
      ras_("ras", config.rasEntries),
      fetchRing_(3 * config.fetchWidth),
      intRf_("int_rf", config.numPhysInt, 32),
      fpRf_("fp_rf", config.numPhysFp, 32),
      rob_(config.robEntries),
      iqArray_("iq", config.iqEntries, kIqPayloadBits),
      iqBusy_(config.iqEntries, false),
      lsqData_("lsq.data",
               config.unifiedLsq ? config.lsqEntries : 1, 32),
      lqData_("lq.data", config.unifiedLsq ? 1 : config.lqEntries, 32),
      sqData_("sq.data", config.unifiedLsq ? 1 : config.sqEntries, 32),
      issueCandidates_(config.iqEntries)
{
    if (cfg_.isa != image.isa)
        fatal("core '%s' is %s but image is %s", cfg_.name,
              isa::isaName(cfg_.isa), isa::isaName(image.isa));
    if (cfg_.robEntries > (1u << kIqRobBits))
        fatal("robEntries %s exceeds the IQ payload field",
              cfg_.robEntries);

    const std::uint32_t lsq_slots =
        cfg_.unifiedLsq ? cfg_.lsqEntries : cfg_.lqEntries;
    lqBusy_.assign(lsq_slots, false);
    sqBusy_.assign(cfg_.unifiedLsq ? 0 : cfg_.sqEntries, false);

    // Identity initial mapping: arch reg i -> phys i.
    renameMap_.resize(isa::kNumArchRegs);
    commitMap_.resize(isa::kNumArchRegs);
    physFree_.assign(cfg_.numPhysInt, true);
    physReady_.assign(cfg_.numPhysInt, true);
    for (std::uint16_t a = 0; a < isa::kNumArchRegs; ++a) {
        renameMap_[a] = a;
        commitMap_[a] = a;
        physFree_[a] = false;
    }
    for (std::uint16_t p = cfg_.numPhysInt; p-- > isa::kNumArchRegs;)
        freeList_.push_back(p);

    // Architectural reset state.
    fetchPc_ = image.entry;
    intRf_.writeBits(renameMap_[isa::kRegSp], 0, 32, image.stackTop);
}

// --------------------------------------------------------------------------
// small helpers

void
OooCore::check(bool ok, CheckSeverity severity, const char *what) const
{
    checkInvariant(ok, cfg_.assertPolicy, severity, what);
}

std::uint16_t
OooCore::allocPhys()
{
    check(!freeList_.empty(), CheckSeverity::Hard,
          "rename: free list exhausted");
    if (freeList_.empty())
        throw SimCrashError("rename: free list exhausted");
    const std::uint16_t reg = freeList_.back();
    freeList_.pop_back();
    check(reg < cfg_.numPhysInt, CheckSeverity::Hard,
          "rename: free-list entry out of range");
    if (reg >= cfg_.numPhysInt)
        throw SimCrashError("rename: free-list entry out of range");
    physFree_[reg] = false;
    physReady_[reg] = false;
    return reg;
}

void
OooCore::freePhys(std::uint16_t reg)
{
    if (reg == Uop::kNoPhys)
        return;
    check(reg < cfg_.numPhysInt, CheckSeverity::Hard,
          "free: register id out of range");
    if (reg >= cfg_.numPhysInt)
        throw SimCrashError("free: register id out of range");
    check(!physFree_[reg], CheckSeverity::Soft,
          "free: double-free of physical register");
    physFree_[reg] = true;
    physReady_[reg] = true;
    freeList_.push_back(reg);
}

std::uint32_t
OooCore::readPhys(std::uint16_t reg)
{
    check(reg < cfg_.numPhysInt, CheckSeverity::Hard,
          "regfile: read index out of range");
    if (reg >= cfg_.numPhysInt)
        throw SimCrashError("regfile: read index out of range");
    return static_cast<std::uint32_t>(intRf_.readBits(reg, 0, 32));
}

void
OooCore::writePhys(std::uint16_t reg, std::uint32_t value)
{
    check(reg < cfg_.numPhysInt, CheckSeverity::Hard,
          "regfile: write index out of range");
    if (reg >= cfg_.numPhysInt)
        throw SimCrashError("regfile: write index out of range");
    intRf_.writeBits(reg, 0, 32, value);
}

std::uint32_t
OooCore::robIndex(std::uint32_t offset) const
{
    return (robHead_ + offset) % cfg_.robEntries;
}

void
OooCore::finish(syskit::Termination term, const std::string &detail)
{
    finished_ = true;
    record_.term = term;
    record_.detail = detail;
    record_.cycles = cycle_;
    record_.instructions = committed_;
    os_.finishInto(record_);
    record_.stats = stats();
}

dfi::StatSet
OooCore::stats() const
{
    dfi::StatSet out = counters_.named("", kCoreStatNames);
    out.merge(hier_.stats());
    out.merge(itlb_.stats());
    out.merge(dtlb_.stats());
    out.merge(btb_.stats());
    out.merge(btbIndirect_.stats());
    if (finished_) {
        out.set("cycles", cycle_);
        out.set("committed_instructions", committed_);
    }
    return out;
}

void
OooCore::forceTimeout()
{
    if (!finished_)
        finish(syskit::Termination::CycleLimit, "campaign cycle limit");
}

// --------------------------------------------------------------------------
// flush / recovery

void
OooCore::flushFrom(std::uint64_t first_bad_seq, std::uint32_t new_pc)
{
    while (robCount_ > 0) {
        const std::uint32_t slot = robIndex(robCount_ - 1);
        Uop &uop = rob_[slot];
        check(uop.valid, CheckSeverity::Hard,
              "flush: invalid ROB tail entry");
        if (!uop.valid || uop.seq < first_bad_seq)
            break;
        // Undo renaming in reverse allocation order.
        if (uop.archDst2 != Uop::kNoArch) {
            renameMap_[uop.archDst2] = uop.oldPhys2;
            freePhys(uop.physDst2);
        }
        if (uop.archDst != Uop::kNoArch) {
            renameMap_[uop.archDst] = uop.oldPhys;
            freePhys(uop.physDst);
        }
        if (uop.iqSlot >= 0 && uop.stage == Uop::Stage::InIq)
            iqBusy_[uop.iqSlot] = false;
        if (uop.lsqSlot >= 0) {
            if (cfg_.unifiedLsq || uop.isLoad)
                lqBusy_[uop.lsqSlot] = false;
            else
                sqBusy_[uop.lsqSlot] = false;
        }
        uop.valid = false;
        --robCount_;
    }
    fetchCount_ = 0;
    fetchPc_ = new_pc;
    fetchReadyCycle_ = cycle_ + 3; // redirect penalty
    counters_.inc(CoreStat::PipelineFlushes);
}

void
OooCore::flushAllYounger(std::uint64_t seq, std::uint32_t new_pc)
{
    flushFrom(seq + 1, new_pc);
}

// --------------------------------------------------------------------------
// fetch

void
OooCore::predictAndRedirect(FetchedInst &fetched)
{
    const MacroOp &op = fetched.op;
    const std::uint32_t pc = fetched.pc;
    const std::uint32_t npc = pc + op.length;
    std::uint32_t next = npc;

    switch (op.kind) {
      case OpKind::BrCond: {
        const bool taken = predictor_.predict(pc);
        counters_.inc(CoreStat::BranchesPredicted);
        if (taken) {
            const std::uint32_t target = btb_.lookup(pc);
            if (target != 0)
                next = target;
            // Without a BTB entry the front end cannot redirect even
            // though the direction predictor says taken (static
            // target is recovered at execute).
        }
        break;
      }
      case OpKind::Jump:
        next = npc + static_cast<std::uint32_t>(op.imm);
        break;
      case OpKind::Call:
        ras_.push(npc);
        next = npc + static_cast<std::uint32_t>(op.imm);
        break;
      case OpKind::CallInd: {
        ras_.push(npc);
        Btb &btb = cfg_.splitBtb ? btbIndirect_ : btb_;
        const std::uint32_t target = btb.lookup(pc);
        if (target != 0)
            next = target;
        break;
      }
      case OpKind::JumpInd: {
        Btb &btb = cfg_.splitBtb ? btbIndirect_ : btb_;
        const std::uint32_t target = btb.lookup(pc);
        if (target != 0)
            next = target;
        break;
      }
      case OpKind::Ret: {
        const std::uint32_t target = ras_.pop();
        if (target != 0)
            next = target;
        break;
      }
      default:
        break;
    }
    fetched.predNextPc = next;
    fetchPc_ = next;
}

void
OooCore::fetchPush(const FetchedInst &fetched)
{
    fetchRing_[(fetchHead_ + fetchCount_) % fetchRing_.size()] = fetched;
    ++fetchCount_;
}

void
OooCore::fetchStage()
{
    if (cycle_ < fetchReadyCycle_)
        return;
    if (fetchCount_ >= 2 * cfg_.fetchWidth)
        return;

    for (std::uint32_t n = 0; n < cfg_.fetchWidth; ++n) {
        const std::uint32_t pc = fetchPc_;
        const Tlb::Result xlat = itlb_.translate(pc);
        std::uint8_t bytes[8] = {};
        const std::uint32_t want = cfg_.isa == IsaKind::X86 ? 6 : 4;
        std::uint32_t avail = want;
        if (static_cast<std::uint64_t>(xlat.pa) + want >
            hier_.memory().size()) {
            avail = xlat.pa < hier_.memory().size()
                        ? hier_.memory().size() - xlat.pa
                        : 0;
        }
        MemHierarchy::Access access;
        if (avail > 0)
            access = hier_.fetch(xlat.pa, avail, bytes);
        const std::uint32_t delay = xlat.latency + access.latency;
        if (delay > cfg_.hier.l1i.hitLatency)
            fetchReadyCycle_ = cycle_ + delay;

        FetchedInst fetched;
        fetched.pc = pc;
        if (avail == 0 || !access.ok) {
            // Fetch fault: deliver a poisoned op that excepts at
            // commit.
            fetched.op.kind = OpKind::Illegal;
            fetched.op.length = 1;
            fetched.predNextPc = pc + 1;
            fetchPush(fetched);
            fetchPc_ = pc + 1;
            counters_.inc(CoreStat::FetchFaults);
            break;
        }
        fetched.op = cfg_.isa == IsaKind::X86
                         ? isa::x86Decode(bytes, avail)
                         : isa::armDecode(bytes, avail);
        counters_.inc(CoreStat::FetchedInstructions);
        predictAndRedirect(fetched);
        fetchPush(fetched);
        if (delay > cfg_.hier.l1i.hitLatency)
            break; // miss ends the fetch group
        if (fetched.op.isControl())
            break; // one control transfer per group
    }
}

// --------------------------------------------------------------------------
// rename / dispatch

void
OooCore::renameStage()
{
    for (std::uint32_t n = 0; n < cfg_.renameWidth; ++n) {
        if (fetchCount_ == 0 || robCount_ >= cfg_.robEntries)
            return;
        const FetchedInst &fetched = fetchRing_[fetchHead_];
        const MacroOp &op = fetched.op;

        const bool x86 = cfg_.isa == IsaKind::X86;
        const bool is_load = op.isMemRead() &&
                             !(op.kind == OpKind::Ret && !x86);
        const bool is_store = op.isMemWrite(cfg_.isa);
        const bool needs_iq =
            op.kind != OpKind::Syscall && op.kind != OpKind::Illegal &&
            op.kind != OpKind::Halt && op.kind != OpKind::Nop;

        // Resource checks.
        int iq_slot = -1;
        if (needs_iq) {
            for (std::uint32_t s = 0; s < cfg_.iqEntries; ++s) {
                if (!iqBusy_[s]) {
                    iq_slot = static_cast<int>(s);
                    break;
                }
            }
            if (iq_slot < 0)
                return; // IQ full
        }
        int lsq_slot = -1;
        if (is_load || is_store) {
            std::vector<bool> &busy =
                (cfg_.unifiedLsq || is_load) ? lqBusy_ : sqBusy_;
            for (std::size_t s = 0; s < busy.size(); ++s) {
                if (!busy[s]) {
                    lsq_slot = static_cast<int>(s);
                    break;
                }
            }
            if (lsq_slot < 0)
                return; // queue full
        }

        // Destination registers.
        std::uint8_t arch_dst = Uop::kNoArch;
        std::uint8_t arch_dst2 = Uop::kNoArch;
        if (op.writesRd())
            arch_dst = op.rd;
        if (op.writesFlags())
            arch_dst = isa::kRegFlags;
        switch (op.kind) {
          case OpKind::Push:
            arch_dst = isa::kRegSp;
            break;
          case OpKind::Pop:
            arch_dst2 = isa::kRegSp;
            break;
          case OpKind::Call:
          case OpKind::CallInd:
            arch_dst = x86 ? isa::kRegSp : isa::kRegLr;
            break;
          case OpKind::Ret:
            if (x86)
                arch_dst = isa::kRegSp;
            break;
          default:
            break;
        }
        const std::uint32_t dst_count =
            (arch_dst != Uop::kNoArch ? 1 : 0) +
            (arch_dst2 != Uop::kNoArch ? 1 : 0);
        if (freeList_.size() < dst_count + 2)
            return; // leave headroom; stall rename

        // Allocate the ROB entry.
        const std::uint32_t slot = robIndex(robCount_);
        Uop &uop = rob_[slot];
        check(!uop.valid, CheckSeverity::Hard,
              "rename: ROB slot already occupied");
        uop = Uop{};
        uop.valid = true;
        uop.op = op;
        uop.pc = fetched.pc;
        uop.npc = fetched.pc + op.length;
        uop.seq = seqGen_++;
        uop.predNextPc = fetched.predNextPc;
        uop.isLoad = is_load;
        uop.isStore = is_store;
        uop.isBranch = op.isControl();
        uop.isSyscall = op.kind == OpKind::Syscall;
        uop.memWidth = static_cast<std::uint8_t>(op.width);
        if (op.kind == OpKind::Push || op.kind == OpKind::Pop ||
            op.kind == OpKind::Ret ||
            ((op.kind == OpKind::Call || op.kind == OpKind::CallInd) &&
             x86)) {
            uop.memWidth = 4;
        }

        // Source registers.
        switch (op.kind) {
          case OpKind::AluRR:
            uop.physSrc1 = renameMap_[op.rn];
            uop.physSrc2 = renameMap_[op.rm];
            break;
          case OpKind::AluRI:
            uop.physSrc1 = renameMap_[op.rn];
            break;
          case OpKind::LoadOp:
            uop.physSrc1 = renameMap_[op.rd]; // old rd value
            uop.physSrc2 = renameMap_[op.rn]; // base
            break;
          case OpKind::MovRR:
            uop.physSrc2 = renameMap_[op.rm];
            break;
          case OpKind::MovTI:
            uop.physSrc1 = renameMap_[op.rd];
            break;
          case OpKind::Load:
            uop.physSrc1 = renameMap_[op.rn];
            break;
          case OpKind::Store:
            uop.physSrc1 = renameMap_[op.rn];
            uop.physSrc2 = renameMap_[op.rm];
            break;
          case OpKind::CmpRR:
            uop.physSrc1 = renameMap_[op.rn];
            uop.physSrc2 = renameMap_[op.rm];
            break;
          case OpKind::CmpRI:
            uop.physSrc1 = renameMap_[op.rn];
            break;
          case OpKind::BrCond:
            uop.physSrc1 = renameMap_[isa::kRegFlags];
            break;
          case OpKind::JumpInd:
          case OpKind::CallInd:
            uop.physSrc2 = renameMap_[op.rm];
            if (x86)
                uop.physSrc1 = renameMap_[isa::kRegSp];
            break;
          case OpKind::Call:
            if (x86)
                uop.physSrc1 = renameMap_[isa::kRegSp];
            break;
          case OpKind::Ret:
            uop.physSrc1 =
                renameMap_[x86 ? isa::kRegSp : isa::kRegLr];
            break;
          case OpKind::Push:
            uop.physSrc1 = renameMap_[isa::kRegSp];
            uop.physSrc2 = renameMap_[op.rm];
            break;
          case OpKind::Pop:
            uop.physSrc1 = renameMap_[isa::kRegSp];
            break;
          default:
            break;
        }

        // Destination renaming (primary, then implicit).
        if (arch_dst != Uop::kNoArch) {
            uop.archDst = arch_dst;
            uop.oldPhys = renameMap_[arch_dst];
            uop.physDst = allocPhys();
            renameMap_[arch_dst] = uop.physDst;
        }
        if (arch_dst2 != Uop::kNoArch) {
            uop.archDst2 = arch_dst2;
            uop.oldPhys2 = renameMap_[arch_dst2];
            uop.physDst2 = allocPhys();
            renameMap_[arch_dst2] = uop.physDst2;
        }

        // Exceptions resolved at commit.
        if (op.kind == OpKind::Illegal)
            uop.exc = Uop::Exc::Illegal;
        else if (op.kind == OpKind::Halt)
            uop.exc = Uop::Exc::Halt;

        if (needs_iq) {
            uop.iqSlot = iq_slot;
            iqBusy_[iq_slot] = true;
            // Pack the payload into the injectable IQ array.
            std::uint64_t payload = 0;
            payload |= static_cast<std::uint64_t>(
                uop.physDst == Uop::kNoPhys ? 0 : uop.physDst);
            payload |= static_cast<std::uint64_t>(
                           uop.physSrc1 == Uop::kNoPhys ? 0
                                                        : uop.physSrc1)
                       << kIqDstBits;
            payload |= static_cast<std::uint64_t>(
                           uop.physSrc2 == Uop::kNoPhys ? 0
                                                        : uop.physSrc2)
                       << (kIqDstBits + kIqSrcBits);
            payload |= static_cast<std::uint64_t>(slot)
                       << (kIqDstBits + 2 * kIqSrcBits);
            iqArray_.writeBits(iq_slot, 0, kIqPayloadBits, payload);
            uop.stage = Uop::Stage::InIq;
        } else {
            // Nop / syscall / poisoned ops skip the scheduler.
            uop.stage = Uop::Stage::WrittenBack;
        }

        if (lsq_slot >= 0) {
            uop.lsqSlot = lsq_slot;
            if (cfg_.unifiedLsq || is_load)
                lqBusy_[lsq_slot] = true;
            else
                sqBusy_[lsq_slot] = true;
        }

        ++robCount_;
        fetchHead_ = (fetchHead_ + 1) % fetchRing_.size();
        --fetchCount_;
        counters_.inc(CoreStat::RenamedInstructions);
    }
}

// --------------------------------------------------------------------------
// issue

void
OooCore::issueStage()
{
    // Collect occupied IQ slots ordered oldest-first.
    std::size_t count = 0;
    for (std::uint32_t s = 0; s < cfg_.iqEntries; ++s) {
        if (!iqBusy_[s])
            continue;
        // Peek the owning uop via the (injectable) payload.
        const std::uint64_t payload =
            iqArray_.readBits(s, 0, kIqPayloadBits);
        const auto rob_slot = static_cast<std::uint32_t>(
            payload >> (kIqDstBits + 2 * kIqSrcBits));
        check(rob_slot < cfg_.robEntries, CheckSeverity::Hard,
              "issue: IQ payload ROB index out of range");
        if (rob_slot >= cfg_.robEntries) {
            iqBusy_[s] = false;
            continue;
        }
        Uop &uop = rob_[rob_slot];
        if (!uop.valid || uop.iqSlot != static_cast<int>(s) ||
            uop.stage != Uop::Stage::InIq) {
            check(false, CheckSeverity::Soft,
                  "issue: IQ entry does not match its ROB entry");
            iqBusy_[s] = false; // tolerated: drop the stale entry
            continue;
        }
        issueCandidates_[count++] = {s, uop.seq};
    }
    const std::span<IssueCandidate> candidates(issueCandidates_.data(),
                                               count);
    std::sort(candidates.begin(), candidates.end(),
              [](const IssueCandidate &a, const IssueCandidate &b) {
                  return a.seq < b.seq;
              });

    std::uint32_t alus = cfg_.intAlus;
    std::uint32_t complexes = cfg_.complexAlus;
    std::uint32_t agus = cfg_.agus;
    std::uint32_t issued = 0;

    for (const IssueCandidate &cand : candidates) {
        if (issued >= cfg_.issueWidth)
            break;
        const std::uint64_t payload =
            iqArray_.readBits(cand.slot, 0, kIqPayloadBits);
        const auto phys_dst = static_cast<std::uint16_t>(
            payload & ((1u << kIqDstBits) - 1));
        const auto phys_src1 = static_cast<std::uint16_t>(
            (payload >> kIqDstBits) & ((1u << kIqSrcBits) - 1));
        const auto phys_src2 = static_cast<std::uint16_t>(
            (payload >> (kIqDstBits + kIqSrcBits)) &
            ((1u << kIqSrcBits) - 1));
        const auto rob_slot = static_cast<std::uint32_t>(
            payload >> (kIqDstBits + 2 * kIqSrcBits));
        Uop &uop = rob_[rob_slot];

        // Readiness through the (possibly corrupted) payload ids.
        check(phys_src1 < cfg_.numPhysInt &&
                  phys_src2 < cfg_.numPhysInt,
              CheckSeverity::Hard,
              "issue: IQ payload source register out of range");
        if (phys_src1 >= cfg_.numPhysInt ||
            phys_src2 >= cfg_.numPhysInt) {
            iqBusy_[cand.slot] = false;
            continue;
        }
        const bool src1_needed = uop.physSrc1 != Uop::kNoPhys;
        const bool src2_needed = uop.physSrc2 != Uop::kNoPhys;
        if ((src1_needed && !physReady_[phys_src1]) ||
            (src2_needed && !physReady_[phys_src2]))
            continue;

        // Conservative machines issue loads only once every older
        // store address is known.
        if (uop.isLoad && !cfg_.aggressiveLoadIssue) {
            bool blocked = false;
            for (std::uint32_t i = 0; i < robCount_; ++i) {
                const Uop &other = rob_[robIndex(i)];
                if (!other.valid || !other.isStore ||
                    other.seq >= uop.seq)
                    continue;
                if (!other.addrResolved) {
                    blocked = true;
                    break;
                }
            }
            if (blocked)
                continue;
        }

        // Functional-unit constraints.
        const bool is_mem = uop.isLoad || uop.isStore;
        const bool is_complex =
            uop.op.kind == OpKind::AluRR || uop.op.kind == OpKind::AluRI
                ? (uop.op.func == AluFunc::Mul ||
                   uop.op.func == AluFunc::DivU ||
                   uop.op.func == AluFunc::DivS ||
                   uop.op.func == AluFunc::RemU ||
                   uop.op.func == AluFunc::RemS)
                : false;
        if (is_mem) {
            if (agus == 0)
                continue;
            --agus;
        } else if (is_complex) {
            if (complexes == 0)
                continue;
            --complexes;
        } else {
            if (alus == 0)
                continue;
            --alus;
        }

        // Register file read (fault-visible, via payload ids).
        if (src1_needed)
            uop.srcVal1 = readPhys(phys_src1);
        if (src2_needed)
            uop.srcVal2 = readPhys(phys_src2);
        uop.issuedPhysDst =
            uop.physDst == Uop::kNoPhys ? Uop::kNoPhys : phys_dst;

        std::uint32_t latency = cfg_.aluLatency;
        if (is_complex) {
            latency = (uop.op.func == AluFunc::Mul) ? cfg_.mulLatency
                                                    : cfg_.divLatency;
        }
        uop.stage = Uop::Stage::Exec;
        uop.readyCycle = cycle_ + latency;
        iqBusy_[cand.slot] = false;
        uop.iqSlot = -1;
        ++issued;
        counters_.inc(CoreStat::IssuedInstructions);
        if (uop.isLoad)
            counters_.inc(CoreStat::IssuedLoads);
        if (uop.isStore)
            counters_.inc(CoreStat::IssuedStores);
    }
}

// --------------------------------------------------------------------------
// execute

dfi::FaultableArray &
OooCore::lsqArrayFor(const Uop &uop, int *entry) const
{
    *entry = uop.lsqSlot;
    auto *self = const_cast<OooCore *>(this);
    if (cfg_.unifiedLsq)
        return self->lsqData_;
    return uop.isLoad ? self->lqData_ : self->sqData_;
}

void
OooCore::storeViolationScan(const Uop &store)
{
    if (!cfg_.aggressiveLoadIssue)
        return;
    const Uop *victim = nullptr;
    for (std::uint32_t i = 0; i < robCount_; ++i) {
        const Uop &other = rob_[robIndex(i)];
        if (!other.valid || !other.isLoad || other.seq <= store.seq)
            continue;
        if (!other.loadDone)
            continue;
        if (rangesOverlap(store.memPA, store.memWidth, other.memPA,
                          other.memWidth)) {
            if (victim == nullptr || other.seq < victim->seq)
                victim = &other;
        }
    }
    if (victim != nullptr) {
        counters_.inc(CoreStat::MemoryOrderViolations);
        const std::uint32_t pc = victim->pc;
        flushFrom(victim->seq, pc);
    }
}

bool
OooCore::resolveLoad(Uop &uop)
{
    // Search older stores for forwarding / conflicts.
    const Uop *forward_from = nullptr;
    for (std::uint32_t i = 0; i < robCount_; ++i) {
        const Uop &other = rob_[robIndex(i)];
        if (!other.valid || !other.isStore || other.seq >= uop.seq)
            continue;
        if (!other.addrResolved) {
            if (!cfg_.aggressiveLoadIssue)
                return false; // conservative: wait
            continue;         // aggressive: speculate past it
        }
        if (!rangesOverlap(other.memPA, other.memWidth, uop.memPA,
                           uop.memWidth))
            continue;
        if (other.memPA == uop.memPA &&
            other.memWidth >= uop.memWidth) {
            if (forward_from == nullptr ||
                other.seq > forward_from->seq)
                forward_from = &other;
        } else {
            return false; // partial overlap: wait for store commit
        }
    }

    std::uint32_t value = 0;
    std::uint32_t latency = 0;
    if (forward_from != nullptr) {
        int entry = -1;
        dfi::FaultableArray &array = lsqArrayFor(*forward_from, &entry);
        check(entry >= 0, CheckSeverity::Hard,
              "forward: store without an LSQ slot");
        value = static_cast<std::uint32_t>(
            array.readBits(entry, 0, uop.memWidth * 8));
        latency = 1;
        counters_.inc(CoreStat::StoreToLoadForwards);
    } else {
        std::uint8_t bytes[8] = {};
        const MemHierarchy::Access access =
            hier_.read(uop.memPA, uop.memWidth, bytes);
        if (!access.ok)
            uop.exc = Uop::Exc::MemFault;
        for (std::uint32_t b = 0; b < uop.memWidth; ++b)
            value |= static_cast<std::uint32_t>(bytes[b]) << (8 * b);
        latency = access.latency;
    }

    if (cfg_.lsqHoldsLoadData && uop.lsqSlot >= 0) {
        // MARSS-like: the loaded value is buffered in the unified
        // LSQ's data field and read back at writeback.
        int entry = -1;
        dfi::FaultableArray &array = lsqArrayFor(uop, &entry);
        array.writeBits(entry, 0, 32, value);
    }
    uop.result = value;
    uop.loadDone = true;
    uop.readyCycle = cycle_ + std::max<std::uint32_t>(latency, 1);
    return true;
}

void
OooCore::executeMemUop(Uop &uop)
{
    // Address generation (once).
    if (!uop.addrResolved) {
        std::uint32_t va = 0;
        switch (uop.op.kind) {
          case OpKind::Load:
          case OpKind::Store:
            va = uop.srcVal1 + static_cast<std::uint32_t>(uop.op.imm);
            break;
          case OpKind::LoadOp:
            va = uop.srcVal2 + static_cast<std::uint32_t>(uop.op.imm);
            break;
          case OpKind::Push:
          case OpKind::Call:
          case OpKind::CallInd:
            va = uop.srcVal1 - 4;
            break;
          case OpKind::Pop:
          case OpKind::Ret:
            va = uop.srcVal1;
            break;
          default:
            panic("executeMemUop: %s is not a memory op",
                  isa::opKindName(uop.op.kind));
        }
        uop.memVA = va;
        if (va % uop.memWidth != 0)
            uop.dueMisaligned = true;
        const Tlb::Result xlat = dtlb_.translate(va);
        uop.memPA = xlat.pa;
        uop.addrResolved = true;
        if (uop.isStore) {
            // Latch the store data into the (injectable) data field.
            int entry = -1;
            dfi::FaultableArray &array = lsqArrayFor(uop, &entry);
            check(entry >= 0, CheckSeverity::Hard,
                  "store without an LSQ slot");
            std::uint32_t data = 0;
            switch (uop.op.kind) {
              case OpKind::Store:
              case OpKind::Push:
                data = uop.srcVal2;
                break;
              case OpKind::Call:
              case OpKind::CallInd:
                data = uop.npc;
                break;
              default:
                break;
            }
            array.writeBits(entry, 0, 32, data);
            storeViolationScan(uop);
        }
        if (xlat.latency > 0) {
            uop.readyCycle = cycle_ + xlat.latency;
            uop.stage = Uop::Stage::Mem;
            return;
        }
    }

    if (uop.isLoad) {
        if (!resolveLoad(uop)) {
            uop.readyCycle = cycle_ + 1; // retry
            uop.stage = Uop::Stage::Mem;
            return;
        }
        uop.stage = Uop::Stage::Mem;
        return;
    }
    // Stores complete once the address (and data) are latched; the
    // cache write happens at commit.
    uop.readyCycle = cycle_ + 1;
    uop.stage = Uop::Stage::Mem;
}

void
OooCore::executeStage()
{
    for (std::uint32_t i = 0; i < robCount_; ++i) {
        Uop &uop = rob_[robIndex(i)];
        if (!uop.valid)
            continue;
        if (uop.stage == Uop::Stage::Exec &&
            cycle_ >= uop.readyCycle) {
            if (uop.isLoad || uop.isStore) {
                executeMemUop(uop);
                continue;
            }
            // Pure register / control op.
            const MacroOp &op = uop.op;
            auto alu = [&](AluFunc func, std::uint32_t a,
                           std::uint32_t b) {
                const isa::AluResult r = isa::evalAlu(func, a, b);
                if (r.divByZero)
                    uop.dueDivZero = true;
                return r.value;
            };
            switch (op.kind) {
              case OpKind::AluRR:
                uop.result = alu(op.func, uop.srcVal1, uop.srcVal2);
                break;
              case OpKind::AluRI:
                uop.result =
                    alu(op.func, uop.srcVal1,
                        static_cast<std::uint32_t>(op.imm));
                break;
              case OpKind::MovRR:
                uop.result = uop.srcVal2;
                break;
              case OpKind::MovRI:
                uop.result = static_cast<std::uint32_t>(op.imm);
                break;
              case OpKind::MovTI:
                uop.result =
                    (uop.srcVal1 & 0xffffu) |
                    (static_cast<std::uint32_t>(op.imm) << 16);
                break;
              case OpKind::CmpRR:
                uop.result =
                    isa::evalCmp(uop.srcVal1, uop.srcVal2).pack();
                break;
              case OpKind::CmpRI:
                uop.result =
                    isa::evalCmp(uop.srcVal1,
                                 static_cast<std::uint32_t>(op.imm))
                        .pack();
                break;
              case OpKind::BrCond:
                uop.actualTaken = isa::evalCond(
                    op.cond, Flags::unpack(uop.srcVal1));
                uop.actualNextPc =
                    uop.actualTaken
                        ? uop.npc + static_cast<std::uint32_t>(op.imm)
                        : uop.npc;
                break;
              case OpKind::Jump:
                uop.actualTaken = true;
                uop.actualNextPc =
                    uop.npc + static_cast<std::uint32_t>(op.imm);
                break;
              case OpKind::JumpInd:
                uop.actualTaken = true;
                uop.actualNextPc = uop.srcVal2;
                break;
              case OpKind::Call: // DARM link-register call
                uop.actualTaken = true;
                uop.actualNextPc =
                    uop.npc + static_cast<std::uint32_t>(op.imm);
                uop.result = uop.npc; // LR
                break;
              case OpKind::CallInd:
                uop.actualTaken = true;
                uop.actualNextPc = uop.srcVal2;
                uop.result = uop.npc;
                break;
              case OpKind::Ret: // DARM: target = LR
                uop.actualTaken = true;
                uop.actualNextPc = uop.srcVal1;
                break;
              default:
                break;
            }
            uop.stage = Uop::Stage::Done;
        } else if (uop.stage == Uop::Stage::Mem &&
                   cycle_ >= uop.readyCycle) {
            if (uop.isLoad && !uop.loadDone) {
                if (!resolveLoad(uop))
                    continue; // still blocked
                continue;     // completes when readyCycle arrives
            }
            // Memory op complete: compute final results.
            const MacroOp &op = uop.op;
            switch (op.kind) {
              case OpKind::LoadOp: {
                const isa::AluResult r =
                    isa::evalAlu(op.func, uop.srcVal1, uop.result);
                if (r.divByZero)
                    uop.dueDivZero = true;
                uop.result = r.value;
                break;
              }
              case OpKind::Push:
                uop.result = uop.srcVal1 - 4; // SP
                break;
              case OpKind::Pop:
                uop.result2 = uop.srcVal1 + 4; // SP
                break;
              case OpKind::Call:
              case OpKind::CallInd: // DX86 stack call
                uop.actualTaken = true;
                uop.actualNextPc =
                    op.kind == OpKind::Call
                        ? uop.npc + static_cast<std::uint32_t>(op.imm)
                        : uop.srcVal2;
                uop.result = uop.srcVal1 - 4; // SP
                break;
              case OpKind::Ret: // DX86: target from the stack
                uop.actualTaken = true;
                uop.actualNextPc = uop.result; // loaded value
                uop.result = uop.srcVal1 + 4;  // SP
                break;
              default:
                break;
            }
            uop.stage = Uop::Stage::Done;
        }
    }
}

// --------------------------------------------------------------------------
// writeback

void
OooCore::writebackStage()
{
    for (std::uint32_t i = 0; i < robCount_; ++i) {
        Uop &uop = rob_[robIndex(i)];
        if (!uop.valid || uop.stage != Uop::Stage::Done)
            continue;

        // MARSS-like unified LSQ: the loaded value is read back from
        // the (injectable) data field on its way to the register file.
        if (uop.isLoad && cfg_.lsqHoldsLoadData && uop.lsqSlot >= 0 &&
            uop.op.kind != OpKind::Ret) {
            int entry = -1;
            dfi::FaultableArray &array = lsqArrayFor(uop, &entry);
            const std::uint32_t buffered = static_cast<std::uint32_t>(
                array.readBits(entry, 0, 32));
            if (uop.op.kind == OpKind::LoadOp) {
                // The ALU half re-evaluates against the buffered value.
                const isa::AluResult r = isa::evalAlu(
                    uop.op.func, uop.srcVal1, buffered);
                uop.result = r.value;
            } else if (uop.op.kind == OpKind::Load ||
                       uop.op.kind == OpKind::Pop) {
                uop.result = buffered;
            }
        }

        if (uop.physDst != Uop::kNoPhys) {
            const std::uint16_t dst = uop.issuedPhysDst != Uop::kNoPhys
                                          ? uop.issuedPhysDst
                                          : uop.physDst;
            writePhys(dst, uop.result);
            check(dst == uop.physDst, CheckSeverity::Soft,
                  "writeback: destination register mismatch");
            if (uop.physDst < cfg_.numPhysInt)
                physReady_[uop.physDst] = true;
        }
        if (uop.physDst2 != Uop::kNoPhys) {
            writePhys(uop.physDst2, uop.result2);
            physReady_[uop.physDst2] = true;
        }
        uop.stage = Uop::Stage::WrittenBack;

        if (uop.isBranch) {
            // Train the front end.
            if (uop.op.kind == OpKind::BrCond) {
                predictor_.update(uop.pc, uop.actualTaken);
                if (uop.actualTaken)
                    btb_.update(uop.pc, uop.actualNextPc);
            } else if (uop.op.kind == OpKind::JumpInd ||
                       uop.op.kind == OpKind::CallInd) {
                Btb &btb = cfg_.splitBtb ? btbIndirect_ : btb_;
                btb.update(uop.pc, uop.actualNextPc);
            }
            if (uop.actualNextPc != uop.predNextPc) {
                counters_.inc(CoreStat::BranchMispredictions);
                flushAllYounger(uop.seq, uop.actualNextPc);
                return; // younger entries are gone
            }
        }
    }
}

// --------------------------------------------------------------------------
// commit

void
OooCore::doSyscall(Uop &uop)
{
    // Serialized at the head: read the architectural registers.
    const std::uint32_t num = readPhys(commitMap_[0]);
    const std::uint32_t arg1 = readPhys(commitMap_[1]);
    const std::uint32_t arg2 = readPhys(commitMap_[2]);

    class DirectPort : public syskit::SysMemPort
    {
      public:
        explicit DirectPort(MemHierarchy &hier) : hier_(hier) {}
        bool
        readByte(std::uint32_t addr, std::uint8_t *out) override
        {
            if (addr < syskit::kCodeBase)
                return false;
            return hier_.directRead(addr, 1, out);
        }

      private:
        MemHierarchy &hier_;
    };

    class CachePort : public syskit::SysMemPort
    {
      public:
        explicit CachePort(MemHierarchy &hier) : hier_(hier) {}
        bool
        readByte(std::uint32_t addr, std::uint8_t *out) override
        {
            if (addr < syskit::kCodeBase)
                return false;
            if (addr >= hier_.memory().size())
                return false;
            (void)hier_.kernelRead(addr, 1, out);
            return true;
        }

      private:
        MemHierarchy &hier_;
    };

    syskit::SyscallResult result;
    if (cfg_.hypervisor) {
        // MARSS: QEMU handles the system call against main memory,
        // bypassing the simulated caches entirely.
        DirectPort port(hier_);
        result = os_.syscall(num, arg1, arg2, port, uop.pc);
    } else {
        // gem5: the simulated kernel runs through the caches.
        CachePort port(hier_);
        result = os_.syscall(num, arg1, arg2, port, uop.pc);
        for (std::uint32_t l = 0; l < cfg_.kernelTouchLines; ++l)
            hier_.kernelTouchInstr(kKernelBase + 64 * l);
    }
    counters_.inc(CoreStat::Syscalls);

    if (result.kernelPanic) {
        ++committed_; // the trapping instruction itself retires
        finish(syskit::Termination::KernelPanic,
               "unhandled trap in the simulated kernel");
        return;
    }
    if (result.exited) {
        ++committed_;
        record_.exitCode = result.exitCode;
        finish(syskit::Termination::Exited, "");
        return;
    }
    // Return value into architectural r0.
    writePhys(commitMap_[0], result.retval);

    // System calls serialize the pipeline.
    flushAllYounger(uop.seq, uop.npc);
    frontendStallUntil_ = cycle_ + cfg_.syscallCost;
}

bool
OooCore::commitOne()
{
    if (robCount_ == 0)
        return false;
    Uop &uop = rob_[robHead_];
    check(uop.valid, CheckSeverity::Hard,
          "commit: head ROB entry invalid");
    if (!uop.valid)
        throw SimCrashError("commit: head ROB entry invalid");
    if (uop.stage != Uop::Stage::WrittenBack)
        return false;

    // Exceptions surface in program order.
    switch (uop.exc) {
      case Uop::Exc::Illegal:
        if (cfg_.assertPolicy == AssertPolicy::Dense) {
            // MARSS-like: the dense decoder assertions fire while the
            // committed instruction is re-cracked.
            finish(syskit::Termination::SimAssert,
                   "decoder assertion: invalid instruction bytes");
        } else {
            finish(syskit::Termination::ProcessCrash,
                   "illegal instruction");
        }
        return false;
      case Uop::Exc::Halt:
        if (cfg_.assertPolicy == AssertPolicy::Dense) {
            finish(syskit::Termination::SimAssert,
                   "assertion: privileged instruction in user mode");
        } else {
            finish(syskit::Termination::ProcessCrash,
                   "privileged instruction in user mode");
        }
        return false;
      case Uop::Exc::MemFault:
        // Footnote 6 of the paper: MaFIN's non-SDC classes contain
        // significantly more Assertions than Crashes — MARSS asserts
        // on invalid physical accesses where gem5 raises the guest
        // fault.
        if (cfg_.assertPolicy == AssertPolicy::Dense) {
            finish(syskit::Termination::SimAssert,
                   "assertion: invalid physical address in data "
                   "access");
        } else {
            finish(syskit::Termination::ProcessCrash,
                   "unmapped memory access");
        }
        return false;
      case Uop::Exc::None:
        break;
    }

    // Survivable exception indications (DUE evidence) count only for
    // committed instructions.
    if (uop.dueDivZero)
        os_.raiseDue("div-zero", uop.pc);
    if (uop.dueMisaligned)
        os_.raiseDue("alignment-fixup", uop.pc);

    if (uop.isSyscall) {
        doSyscall(uop);
        if (finished_)
            return false;
    }

    if (uop.isStore) {
        // Drain the store: data comes from the (injectable) queue
        // data field, so faults landing between execute and commit
        // ride into the cache.
        int entry = -1;
        dfi::FaultableArray &array = lsqArrayFor(uop, &entry);
        const std::uint32_t data = static_cast<std::uint32_t>(
            array.readBits(entry, 0, 32));
        std::uint8_t bytes[4];
        for (std::uint32_t b = 0; b < uop.memWidth; ++b)
            bytes[b] = static_cast<std::uint8_t>(data >> (8 * b));
        // Guest-level protection: the page tables forbid stores below
        // the code limit.
        const bool protect_ok =
            uop.memVA >= syskit::kCodeBase &&
            hier_.memory()
                    .checkAccess(uop.memVA, uop.memWidth, true) ==
                syskit::MemFault::None;
        auto memory_fault = [&](const char *what) {
            // Same footnote-6 asymmetry as Exc::MemFault above.
            if (cfg_.assertPolicy == AssertPolicy::Dense) {
                finish(syskit::Termination::SimAssert,
                       std::string("assertion: ") + what);
            } else {
                finish(syskit::Termination::ProcessCrash, what);
            }
        };
        if (!protect_ok) {
            memory_fault("store to protected or unmapped memory");
            return false;
        }
        const MemHierarchy::Access access =
            hier_.write(uop.memPA, uop.memWidth, bytes);
        if (!access.ok) {
            memory_fault("store to unmapped physical memory");
            return false;
        }
        counters_.inc(CoreStat::CommittedStores);
    }
    if (uop.isLoad) {
        // Guest-level protection check for loads as well.
        if (uop.memVA < syskit::kCodeBase ||
            hier_.memory().checkAccess(uop.memVA, uop.memWidth,
                                       false) !=
                syskit::MemFault::None) {
            if (cfg_.assertPolicy == AssertPolicy::Dense) {
                finish(syskit::Termination::SimAssert,
                       "assertion: load from unmapped memory");
            } else {
                finish(syskit::Termination::ProcessCrash,
                       "load from unmapped memory");
            }
            return false;
        }
        counters_.inc(CoreStat::CommittedLoads);
    }
    if (uop.op.kind == OpKind::BrCond)
        counters_.inc(CoreStat::CommittedBranches);

    // Retire renames: free the mapping each destination replaces
    // (in-order commit guarantees commitMap holds the previous
    // committed producer).
    if (uop.archDst != Uop::kNoArch) {
        freePhys(commitMap_[uop.archDst]);
        commitMap_[uop.archDst] = uop.physDst;
    }
    if (uop.archDst2 != Uop::kNoArch) {
        freePhys(commitMap_[uop.archDst2]);
        commitMap_[uop.archDst2] = uop.physDst2;
    }

    // Release queue slots.
    if (uop.lsqSlot >= 0) {
        if (cfg_.unifiedLsq || uop.isLoad)
            lqBusy_[uop.lsqSlot] = false;
        else
            sqBusy_[uop.lsqSlot] = false;
    }

    uop.valid = false;
    robHead_ = (robHead_ + 1) % cfg_.robEntries;
    --robCount_;
    ++committed_;
    return true;
}

void
OooCore::commitStage()
{
    for (std::uint32_t n = 0; n < cfg_.commitWidth; ++n) {
        if (!commitOne() || finished_)
            return;
    }
}

// --------------------------------------------------------------------------
// kernel timer tick

void
OooCore::kernelTick()
{
    if (cfg_.kernelTickInterval == 0 ||
        cycle_ % cfg_.kernelTickInterval != 0 || cycle_ == 0)
        return;
    counters_.inc(CoreStat::KernelTicks);
    frontendStallUntil_ =
        std::max<std::uint64_t>(frontendStallUntil_,
                                cycle_ + cfg_.kernelTickCost);
    if (cfg_.hypervisor) {
        // MARSS: QEMU housekeeping runs against main memory only.
        std::uint8_t scratch[8] = {};
        (void)hier_.directRead(kKernelBase, 8, scratch);
        (void)hier_.directWrite(kKernelBase, 8, scratch);
    } else {
        // gem5: the kernel handler occupies the caches.
        for (std::uint32_t l = 0; l < cfg_.kernelTouchLines; ++l)
            hier_.kernelTouchInstr(kKernelBase + 64 * l);
        std::uint8_t scratch[8] = {};
        (void)hier_.kernelRead(kKernelBase, 8, scratch);
    }
}

// --------------------------------------------------------------------------
// top level

bool
OooCore::tick()
{
    if (finished_)
        return false;
    ++cycle_;
    try {
        commitStage();
        if (finished_)
            return false;
        if (cycle_ >= frontendStallUntil_) {
            writebackStage();
            executeStage();
            issueStage();
            renameStage();
            fetchStage();
        }
        kernelTick();
    } catch (const SimAssertError &err) {
        finish(syskit::Termination::SimAssert, err.what());
        return false;
    } catch (const SimCrashError &err) {
        finish(syskit::Termination::SimCrash, err.what());
        return false;
    }
    return !finished_;
}

// --------------------------------------------------------------------------
// injection interface

dfi::FaultableArray *
OooCore::arrayFor(dfi::StructureId id)
{
    using dfi::StructureId;
    switch (id) {
      case StructureId::IntRegFile:
        return &intRf_;
      case StructureId::FpRegFile:
        return &fpRf_;
      case StructureId::IssueQueue:
        return &iqArray_;
      case StructureId::LoadStoreQueue:
        return cfg_.unifiedLsq ? &lsqData_ : nullptr;
      case StructureId::LoadQueue:
        return cfg_.unifiedLsq ? nullptr : &lqData_;
      case StructureId::StoreQueue:
        return cfg_.unifiedLsq ? nullptr : &sqData_;
      case StructureId::L1DData:
        return &hier_.l1d().dataArray();
      case StructureId::L1DTag:
        return &hier_.l1d().tagArray();
      case StructureId::L1DValid:
        return &hier_.l1d().validArray();
      case StructureId::L1IData:
        return &hier_.l1i().dataArray();
      case StructureId::L1ITag:
        return &hier_.l1i().tagArray();
      case StructureId::L1IValid:
        return &hier_.l1i().validArray();
      case StructureId::L2Data:
        return &hier_.l2().dataArray();
      case StructureId::L2Tag:
        return &hier_.l2().tagArray();
      case StructureId::L2Valid:
        return &hier_.l2().validArray();
      case StructureId::DTlb:
        return &dtlb_.array();
      case StructureId::ITlb:
        return &itlb_.array();
      case StructureId::Btb:
        return &btb_.array();
      case StructureId::BtbIndirect:
        return cfg_.splitBtb ? &btbIndirect_.array() : nullptr;
      case StructureId::Ras:
        return &ras_.array();
      case StructureId::PrefetchL1D:
        return cfg_.hier.prefetchL1D ? &hier_.l1dPrefetcher().array()
                                     : nullptr;
      case StructureId::PrefetchL1I:
        return cfg_.hier.prefetchL1I ? &hier_.l1iPrefetcher().array()
                                     : nullptr;
      default:
        return nullptr;
    }
}

bool
OooCore::entryLive(dfi::StructureId id, std::uint32_t entry)
{
    using dfi::StructureId;
    switch (id) {
      case StructureId::IntRegFile:
        return entry < physFree_.size() && !physFree_[entry];
      case StructureId::FpRegFile:
        return false; // integer workloads never allocate FP registers
      case StructureId::IssueQueue:
        return entry < iqBusy_.size() && iqBusy_[entry];
      case StructureId::LoadStoreQueue:
      case StructureId::LoadQueue:
        return entry < lqBusy_.size() && lqBusy_[entry];
      case StructureId::StoreQueue:
        return entry < sqBusy_.size() && sqBusy_[entry];
      case StructureId::L1DData:
      case StructureId::L1DTag:
        return hier_.l1d().lineValid(entry);
      case StructureId::L1IData:
      case StructureId::L1ITag:
        return hier_.l1i().lineValid(entry);
      case StructureId::L2Data:
      case StructureId::L2Tag:
        return hier_.l2().lineValid(entry);
      default:
        // Valid-bit arrays, TLBs, BTBs, RAS, prefetchers: a flip can
        // matter regardless of occupancy — never early-classify.
        return true;
    }
}

std::uint64_t
OooCore::approxStateBytes() const
{
    // Guest memory and the cache arrays dominate; the small
    // predictor/TLB arrays ride inside the sizeof slack.
    std::uint64_t bytes = sizeof(*this);
    bytes += hier_.approxStateBytes();
    bytes += intRf_.storageBytes() + fpRf_.storageBytes() +
             iqArray_.storageBytes() + lsqData_.storageBytes() +
             lqData_.storageBytes() + sqData_.storageBytes();
    bytes += rob_.capacity() * sizeof(Uop);
    bytes += fetchRing_.capacity() * sizeof(FetchedInst);
    return bytes;
}

template <class Ar>
void
Uop::serializeState(Ar &ar)
{
    serial::value(ar, valid);
    serial::value(ar, op);
    serial::value(ar, pc);
    serial::value(ar, npc);
    serial::value(ar, seq);
    serial::value(ar, stage);
    serial::value(ar, readyCycle);
    serial::value(ar, archDst);
    serial::value(ar, archDst2);
    serial::value(ar, physDst);
    serial::value(ar, physDst2);
    serial::value(ar, oldPhys);
    serial::value(ar, oldPhys2);
    serial::value(ar, physSrc1);
    serial::value(ar, physSrc2);
    serial::value(ar, srcVal1);
    serial::value(ar, srcVal2);
    serial::value(ar, issuedPhysDst);
    serial::value(ar, result);
    serial::value(ar, result2);
    serial::value(ar, isLoad);
    serial::value(ar, isStore);
    serial::value(ar, addrResolved);
    serial::value(ar, loadDone);
    serial::value(ar, memVA);
    serial::value(ar, memPA);
    serial::value(ar, memWidth);
    serial::value(ar, lsqSlot);
    serial::value(ar, iqSlot);
    serial::value(ar, isBranch);
    serial::value(ar, predNextPc);
    serial::value(ar, actualTaken);
    serial::value(ar, actualNextPc);
    serial::value(ar, exc);
    serial::value(ar, dueDivZero);
    serial::value(ar, dueMisaligned);
    serial::value(ar, isSyscall);
}

template void Uop::serializeState(serial::Writer &);
template void Uop::serializeState(serial::Reader &);

template <class Ar>
void
FetchedInst::serializeState(Ar &ar)
{
    serial::value(ar, op);
    serial::value(ar, pc);
    serial::value(ar, predNextPc);
}

template void FetchedInst::serializeState(serial::Writer &);
template void FetchedInst::serializeState(serial::Reader &);

template <class Ar>
void
OooCore::serializeState(Ar &ar)
{
    // cfg_ is construction-time data and is deliberately not part of
    // the stream; the loader constructs the core from the same config
    // first.  Every member below is dynamic state, listed in
    // declaration order (the issueStage() scratch is not state).
    serial::value(ar, counters_);
    serial::value(ar, record_);
    serial::value(ar, os_);
    serial::value(ar, finished_);
    serial::value(ar, cycle_);
    serial::value(ar, seqGen_);
    serial::value(ar, committed_);
    serial::value(ar, hier_);
    serial::value(ar, itlb_);
    serial::value(ar, dtlb_);
    serial::value(ar, predictor_);
    serial::value(ar, btb_);
    serial::value(ar, btbIndirect_);
    serial::value(ar, ras_);
    serial::value(ar, fetchPc_);
    serial::value(ar, fetchReadyCycle_);
    serial::value(ar, fetchRing_);
    serial::value(ar, fetchHead_);
    serial::value(ar, fetchCount_);
    if constexpr (!Ar::kSaving) {
        if (fetchRing_.size() != 3 * std::size_t{cfg_.fetchWidth} ||
            (!fetchRing_.empty() && fetchHead_ >= fetchRing_.size()) ||
            fetchCount_ > fetchRing_.size()) {
            ar.fail("core: fetch ring does not match the configuration");
            return;
        }
    }
    serial::value(ar, intRf_);
    serial::value(ar, fpRf_);
    serial::value(ar, renameMap_);
    serial::value(ar, commitMap_);
    serial::value(ar, freeList_);
    serial::value(ar, physFree_);
    serial::value(ar, physReady_);
    serial::value(ar, rob_);
    serial::value(ar, robHead_);
    serial::value(ar, robCount_);
    serial::value(ar, iqArray_);
    serial::value(ar, iqBusy_);
    serial::value(ar, lsqData_);
    serial::value(ar, lqData_);
    serial::value(ar, sqData_);
    serial::value(ar, lqBusy_);
    serial::value(ar, sqBusy_);
    serial::value(ar, frontendStallUntil_);
}

template void OooCore::serializeState(serial::Writer &);
template void OooCore::serializeState(serial::Reader &);

} // namespace dfi::uarch
