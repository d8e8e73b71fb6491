#include "isa/macroop.hh"

#include <sstream>

#include "common/logging.hh"

namespace dfi::isa
{

std::string
opKindName(OpKind kind)
{
    static const char *names[] = {
        "illegal", "nop",   "halt",  "alu_rr", "alu_ri",  "load_op",
        "mov_rr",  "mov_ri", "mov_ti", "load",  "store",   "cmp_rr",
        "cmp_ri",  "brcond", "jump",  "jumpind", "call",   "callind",
        "ret",     "push",  "pop",   "syscall"};
    const auto i = static_cast<std::size_t>(kind);
    if (i >= sizeof(names) / sizeof(names[0]))
        panic("opKindName: bad OpKind %s", i);
    return names[i];
}

bool
MacroOp::isMemRead() const
{
    switch (kind) {
      case OpKind::Load:
      case OpKind::LoadOp:
      case OpKind::Pop:
      case OpKind::Ret:
        return true;
      default:
        return false;
    }
}

bool
MacroOp::isMemWrite(IsaKind isa) const
{
    switch (kind) {
      case OpKind::Store:
      case OpKind::Push:
        return true;
      case OpKind::Call:
      case OpKind::CallInd:
        return isa == IsaKind::X86; // DX86 pushes the return address
      default:
        return false;
    }
}

bool
MacroOp::isControl() const
{
    switch (kind) {
      case OpKind::BrCond:
      case OpKind::Jump:
      case OpKind::JumpInd:
      case OpKind::Call:
      case OpKind::CallInd:
      case OpKind::Ret:
        return true;
      default:
        return false;
    }
}

bool
MacroOp::writesRd() const
{
    switch (kind) {
      case OpKind::AluRR:
      case OpKind::AluRI:
      case OpKind::LoadOp:
      case OpKind::MovRR:
      case OpKind::MovRI:
      case OpKind::MovTI:
      case OpKind::Load:
      case OpKind::Pop:
        return true;
      default:
        return false;
    }
}

bool
MacroOp::usesSpImplicitly() const
{
    switch (kind) {
      case OpKind::Push:
      case OpKind::Pop:
        return true;
      case OpKind::Call:
      case OpKind::CallInd:
      case OpKind::Ret:
        // Only stack-based calls touch SP; the DARM link-register
        // convention does not.  The decoder leaves this generic: the
        // consumer checks the ISA via isMemWrite()/isMemRead().  For
        // Ret the DX86 pop reads SP.  DARM Ret reads LR only.
        return true;
      default:
        return false;
    }
}

bool
MacroOp::writesFlags() const
{
    return kind == OpKind::CmpRR || kind == OpKind::CmpRI;
}

bool
MacroOp::readsFlags() const
{
    return kind == OpKind::BrCond;
}

std::string
MacroOp::toString() const
{
    std::ostringstream os;
    os << opKindName(kind);
    switch (kind) {
      case OpKind::AluRR:
        os << ' ' << aluFuncName(func) << " r" << int(rd) << ", r"
           << int(rn) << ", r" << int(rm);
        break;
      case OpKind::AluRI:
        os << ' ' << aluFuncName(func) << " r" << int(rd) << ", r"
           << int(rn) << ", #" << imm;
        break;
      case OpKind::LoadOp:
        os << ' ' << aluFuncName(func) << " r" << int(rd) << ", [r"
           << int(rn) << (imm >= 0 ? "+" : "") << imm << ']';
        break;
      case OpKind::MovRR:
        os << " r" << int(rd) << ", r" << int(rm);
        break;
      case OpKind::MovRI:
      case OpKind::MovTI:
        os << " r" << int(rd) << ", #" << imm;
        break;
      case OpKind::Load:
        os << int(width) * 8 << " r" << int(rd) << ", [r" << int(rn)
           << (imm >= 0 ? "+" : "") << imm << ']';
        break;
      case OpKind::Store:
        os << int(width) * 8 << " [r" << int(rn)
           << (imm >= 0 ? "+" : "") << imm << "], r" << int(rm);
        break;
      case OpKind::CmpRR:
        os << " r" << int(rn) << ", r" << int(rm);
        break;
      case OpKind::CmpRI:
        os << " r" << int(rn) << ", #" << imm;
        break;
      case OpKind::BrCond:
        os << '.' << condName(cond) << ' ' << imm;
        break;
      case OpKind::Jump:
      case OpKind::Call:
        os << ' ' << imm;
        break;
      case OpKind::JumpInd:
      case OpKind::CallInd:
        os << " r" << int(rm);
        break;
      case OpKind::Push:
        os << " r" << int(rm);
        break;
      case OpKind::Pop:
        os << " r" << int(rd);
        break;
      default:
        break;
    }
    return os.str();
}

} // namespace dfi::isa
