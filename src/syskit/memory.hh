/**
 * @file
 * Guest physical memory and access-fault taxonomy.
 *
 * GuestMemory is the authoritative flat byte store of the simulated
 * machine.  Accesses report faults instead of throwing: corrupted
 * state routinely produces wild addresses, and the machines must stay
 * UB-free while converting them into the guest-visible fault taxonomy.
 */

#ifndef DFI_SYSKIT_MEMORY_HH
#define DFI_SYSKIT_MEMORY_HH

#include <cstdint>
#include <string>

#include "storage/cow_buffer.hh"
#include "syskit/layout.hh"

namespace dfi::syskit
{

/** Faults a memory access can raise. */
enum class MemFault : std::uint8_t
{
    None,
    Unmapped,    //!< below kCodeBase or beyond memory size
    WriteToCode, //!< store into the read-only code segment
};

/**
 * Flat guest memory with segment protection.
 *
 * The byte store sits in copy-on-write pages
 * (storage/cow_buffer.hh): checkpoint copies of a core share the
 * whole image and pay only for the pages a run subsequently writes.
 */
class GuestMemory
{
  public:
    GuestMemory() = default;

    /**
     * @param size total bytes of guest memory
     * @param code_limit first address above the read-only code segment
     */
    GuestMemory(std::uint32_t size, std::uint32_t code_limit);

    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(bytes_.size());
    }

    /** True if [addr, addr+len) is fully inside mapped memory. */
    bool mapped(std::uint32_t addr, std::uint32_t len) const;

    /** Check an access; returns the fault it would raise. */
    MemFault checkAccess(std::uint32_t addr, std::uint32_t len,
                         bool is_write) const;

    /**
     * Read `len` bytes (little-endian value for len <= 4).
     * @return MemFault::None and sets *value on success.
     */
    MemFault read(std::uint32_t addr, std::uint32_t len,
                  std::uint32_t *value) const;

    /** Write `len` low-order bytes of value (little-endian). */
    MemFault write(std::uint32_t addr, std::uint32_t len,
                   std::uint32_t value);

    /** Bulk reads/writes for loaders and the system layer. */
    MemFault readBlock(std::uint32_t addr, std::uint32_t len,
                       std::uint8_t *out) const;
    MemFault writeBlock(std::uint32_t addr, std::uint32_t len,
                        const std::uint8_t *in);

    /**
     * Privileged access that ignores write protection (used by the
     * loader and by cache writebacks, which act on physical memory).
     */
    void pokeBytes(std::uint32_t addr, std::uint32_t len,
                   const std::uint8_t *in);
    void peekBytes(std::uint32_t addr, std::uint32_t len,
                   std::uint8_t *out) const;

    /** Visit the pages of the byte store (CowBuffer::forEachPage). */
    template <class Visit>
    void
    forEachPage(Visit &&visit) const
    {
        bytes_.forEachPage(visit);
    }

    /** Backing pages (checkpoint memory-budget accounting). */
    std::size_t backingPages() const { return bytes_.pageCount(); }
    /** Pages still shared with a checkpoint or sibling copy. */
    std::size_t sharedBackingPages() const
    {
        return bytes_.sharedPageCount();
    }

  private:
    /** 4 KiB copy-on-write pages of guest bytes. */
    dfi::CowBuffer<std::uint8_t, 4096> bytes_;
    std::uint32_t codeLimit_ = kCodeBase;
};

} // namespace dfi::syskit

#endif // DFI_SYSKIT_MEMORY_HH
