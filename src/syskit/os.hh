/**
 * @file
 * The mini operating-system layer.
 *
 * MiniOs implements the guest-visible system behaviour that the
 * paper's full-system setup provides: a syscall interface, survivable
 * exception handling (the DUE indications), and the distinction
 * between a process crash and a kernel panic (system crash).
 *
 * System-call memory accesses are routed through a SysMemPort supplied
 * by the simulator.  This is where the paper's MARSS/QEMU masking
 * effect lives: marssim hands MiniOs a direct main-memory port (QEMU
 * bypasses the simulated caches), while gemsim hands it a through-
 * cache port (gem5 handles the complete system internally), so faults
 * resident in the L1D are invisible to marssim's syscalls but fully
 * visible to gemsim's.
 */

#ifndef DFI_SYSKIT_OS_HH
#define DFI_SYSKIT_OS_HH

#include <cstdint>
#include <vector>

#include "syskit/memory.hh"
#include "syskit/run_record.hh"

namespace dfi::syskit
{

/** Syscall numbers (passed in r0). */
enum : std::uint32_t
{
    kSysWrite = 1, //!< write(r1 = buf, r2 = len) -> bytes written
    kSysExit = 2,  //!< exit(r1 = code)
    kSysBrk = 3,   //!< brk(r1 = new top) -> current top (bump only)
};

/** Memory port the OS uses to read/write guest buffers. */
class SysMemPort
{
  public:
    virtual ~SysMemPort() = default;

    /** Read one byte of guest memory; false on fault. */
    virtual bool readByte(std::uint32_t addr, std::uint8_t *out) = 0;
};

/** Result of dispatching one syscall. */
struct SyscallResult
{
    std::uint32_t retval = 0;
    bool exited = false;
    bool kernelPanic = false;
    std::uint32_t exitCode = 0;
};

/** Per-run operating-system state. */
class MiniOs
{
  public:
    MiniOs() = default;

    /**
     * Dispatch a syscall.
     * @param num   syscall number (r0)
     * @param arg1  first argument (r1)
     * @param arg2  second argument (r2)
     * @param port  memory port for buffer accesses
     * @param pc    pc of the syscall (for DUE logging)
     */
    SyscallResult syscall(std::uint32_t num, std::uint32_t arg1,
                          std::uint32_t arg2, SysMemPort &port,
                          std::uint32_t pc);

    /** Log a survivable exception indication (DUE evidence). */
    void raiseDue(const std::string &kind, std::uint32_t pc);

    /** Output written so far. */
    const std::vector<std::uint8_t> &output() const { return output_; }

    /** DUE events logged so far. */
    const std::vector<DueEvent> &dueEvents() const { return dueEvents_; }

    /** Move the accumulated state into a RunRecord. */
    void finishInto(RunRecord &record);

    /**
     * Bound on output growth: a corrupted length argument must not let
     * a faulty run allocate unbounded host memory.  Writes beyond the
     * cap turn into an EFAULT-style DUE.
     */
    static constexpr std::uint32_t kMaxOutputBytes = 1 << 20;

  private:
    std::vector<std::uint8_t> output_;
    std::vector<DueEvent> dueEvents_;
    std::uint32_t brkTop_ = 0;
};

} // namespace dfi::syskit

#endif // DFI_SYSKIT_OS_HH
