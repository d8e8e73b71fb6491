#include "syskit/os.hh"

namespace dfi::syskit
{

SyscallResult
MiniOs::syscall(std::uint32_t num, std::uint32_t arg1, std::uint32_t arg2,
                SysMemPort &port, std::uint32_t pc)
{
    SyscallResult result;
    switch (num) {
      case kSysWrite: {
        // write(buf = arg1, len = arg2)
        if (arg1 < kCodeBase) {
            // Buffer points into the kernel-reserved page: the kernel
            // itself faults while copying -> unrecoverable.
            result.kernelPanic = true;
            return result;
        }
        std::uint32_t written = 0;
        for (std::uint32_t i = 0; i < arg2; ++i) {
            if (output_.size() >= kMaxOutputBytes) {
                raiseDue("write-overflow", pc);
                break;
            }
            std::uint8_t byte = 0;
            if (!port.readByte(arg1 + i, &byte)) {
                raiseDue("efault", pc);
                break;
            }
            output_.push_back(byte);
            ++written;
        }
        result.retval = written;
        return result;
      }
      case kSysExit:
        result.exited = true;
        result.exitCode = arg1;
        return result;
      case kSysBrk:
        if (arg1 > brkTop_)
            brkTop_ = arg1;
        result.retval = brkTop_;
        return result;
      default:
        // Unknown syscall number: the simulated kernel has no handler
        // and the trap escalates to a panic (system crash).
        result.kernelPanic = true;
        return result;
    }
}

void
MiniOs::raiseDue(const std::string &kind, std::uint32_t pc)
{
    // Bound the log: a stuck fault can raise the same indication every
    // cycle for millions of cycles.
    if (dueEvents_.size() < 4096)
        dueEvents_.push_back(DueEvent{kind, pc});
}

void
MiniOs::finishInto(RunRecord &record)
{
    record.output = std::move(output_);
    record.dueEvents = std::move(dueEvents_);
    output_.clear();
    dueEvents_.clear();
}

} // namespace dfi::syskit
