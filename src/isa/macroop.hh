/**
 * @file
 * MacroOp: the unified decoded-instruction form.
 *
 * Both ISA decoders produce MacroOps; the functional interpreter and
 * both out-of-order pipeline models consume them.  A MacroOp carries
 * at most one primary register destination plus an optional implicit
 * SP destination (DX86 PUSH/POP/CALL/RET), at most two register
 * sources plus FLAGS for conditional branches, and at most one memory
 * access.
 */

#ifndef DFI_ISA_MACROOP_HH
#define DFI_ISA_MACROOP_HH

#include <cstdint>
#include <string>

#include "isa/types.hh"

namespace dfi::isa
{

/** Operation classes flowing through the machines. */
enum class OpKind : std::uint8_t
{
    Illegal, //!< undecodable bytes — raises IllegalInstruction
    Nop,
    Halt,    //!< privileged; illegal from user code
    AluRR,   //!< rd = rn <func> rm
    AluRI,   //!< rd = rn <func> imm
    LoadOp,  //!< DX86 only: rd = rd <func> mem[rn + disp]
    MovRR,   //!< rd = rm
    MovRI,   //!< rd = imm (DX86: imm32; DARM MOVW: imm16 zero-extended)
    MovTI,   //!< DARM MOVT: rd[31:16] = imm16
    Load,    //!< rd = zext(mem[rb + disp]) of width bytes
    Store,   //!< mem[rb + disp] = rs (width bytes)
    CmpRR,   //!< FLAGS = cmp(rn, rm)
    CmpRI,   //!< FLAGS = cmp(rn, imm)
    BrCond,  //!< if cond(FLAGS) pc += disp
    Jump,    //!< pc += disp
    JumpInd, //!< pc = rm
    Call,    //!< DX86: push pc+len, pc += disp; DARM: lr = pc+4, pc += disp
    CallInd, //!< indirect call through rm (same link semantics)
    Ret,     //!< DX86: pc = pop(); DARM: pc = lr
    Push,    //!< DX86 only: sp -= 4, mem[sp] = rs
    Pop,     //!< DX86 only: rd = mem[sp], sp += 4
    Syscall  //!< trap to the system layer
};

std::string opKindName(OpKind kind);

/** Memory access width in bytes (1, 2 or 4). */
enum class MemWidth : std::uint8_t
{
    Byte = 1,
    Half = 2,
    Word = 4
};

/** A decoded instruction. */
struct MacroOp
{
    OpKind kind = OpKind::Illegal;
    AluFunc func = AluFunc::Add;
    Cond cond = Cond::Eq;
    MemWidth width = MemWidth::Word;
    std::uint8_t rd = 0;  //!< destination register
    std::uint8_t rn = 0;  //!< first source / memory base
    std::uint8_t rm = 0;  //!< second source / store data source
    std::int32_t imm = 0; //!< immediate / displacement / branch offset
    std::uint8_t length = 0; //!< encoded length in bytes

    /** True if the op reads data memory (incl. Pop/Ret/LoadOp). */
    bool isMemRead() const;
    /** True if the op writes data memory (incl. Push, DX86 Call). */
    bool isMemWrite(IsaKind isa) const;
    /** True for any control-transfer op. */
    bool isControl() const;
    /** True if it may write the primary destination register rd. */
    bool writesRd() const;
    /** True if the op implicitly reads and writes SP (DX86 stack ops). */
    bool usesSpImplicitly() const;
    /** True if the op writes FLAGS. */
    bool writesFlags() const;
    /** True if the op reads FLAGS. */
    bool readsFlags() const;

    /** Disassemble for logs and tests. */
    std::string toString() const;
};

} // namespace dfi::isa

#endif // DFI_ISA_MACROOP_HH
