/**
 * @file
 * Two-level memory hierarchy (L1I + L1D + unified L2) over guest
 * physical memory.
 *
 * Two coherence modes capture the paper's key MARSS/gem5 difference:
 *
 *  - Shadow (MARSS-like): main memory is functionally authoritative.
 *    Committed stores update the cache arrays *and* main memory; the
 *    hypervisor (QEMU analog) reads/writes main memory directly,
 *    bypassing the caches — so faults resident in cache arrays are
 *    invisible to it (the paper's L1D masking effect, Remark 3).
 *    Evictions still write cache-array contents back, which is how
 *    cache faults escape to memory.
 *
 *  - WriteBack (gem5-like): the caches are authoritative; dirty data
 *    exists only in the arrays until evicted, and system accesses go
 *    through the hierarchy and see cache faults.
 */

#ifndef DFI_UARCH_HIER_HH
#define DFI_UARCH_HIER_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "syskit/memory.hh"
#include "uarch/cache.hh"
#include "uarch/prefetch.hh"

namespace dfi::uarch
{

/** Coherence/authority mode of the hierarchy. */
enum class HierMode
{
    Shadow,   //!< MARSS-like: memory authoritative, stores write through
    WriteBack //!< gem5-like: caches authoritative
};

/**
 * Largest cache line the hierarchy moves, in bytes.  Fills go through
 * a stack buffer of this size, and every level must use the same line
 * size (the MemHierarchy constructor rejects other geometries).
 */
constexpr std::uint32_t kMaxLineBytes = 256;

/** Hierarchy configuration. */
struct HierConfig
{
    HierMode mode = HierMode::WriteBack;
    CacheConfig l1i{"l1i", 32 * 1024, 64, 4, 2};
    CacheConfig l1d{"l1d", 32 * 1024, 64, 4, 2};
    CacheConfig l2{"l2", 1024 * 1024, 64, 16, 12};
    std::uint32_t memLatency = 60;
    bool prefetchL1D = false; //!< MaFIN's added next-line prefetchers
    bool prefetchL1I = false;
    /**
     * Model the cache data arrays (Shadow mode only).  The original
     * MARSS keeps data solely in main memory; MaFIN's extension adds
     * the arrays — at a simulation-throughput cost the paper measures
     * at roughly 40%.  Setting this false reproduces the original
     * behaviour (fault injection into data arrays is then
     * meaningless, exactly as the paper says of stock MARSS).
     */
    bool modelDataArrays = true;
};

/** The hierarchy. */
class MemHierarchy
{
  public:
    MemHierarchy() = default;
    /**
     * fatal() unless L1I, L1D and L2 share one line size of at most
     * kMaxLineBytes.
     */
    MemHierarchy(const HierConfig &config, syskit::GuestMemory memory);

    /**
     * Data read of `count` (<= 8) bytes at physical address `pa`
     * through L1D.  May span two lines.  Returns accumulated latency;
     * out-of-range accesses yield zero bytes and ok=false.
     */
    struct Access
    {
        bool ok = true;
        std::uint32_t latency = 0;
    };
    Access read(std::uint32_t pa, std::uint32_t count,
                std::uint8_t *out);

    /** Data write through L1D (write-allocate). */
    Access write(std::uint32_t pa, std::uint32_t count,
                 const std::uint8_t *in);

    /** Instruction fetch of `count` bytes through L1I. */
    Access fetch(std::uint32_t pa, std::uint32_t count,
                 std::uint8_t *out);

    /** Hypervisor/kernel direct access (Shadow mode semantics). */
    bool directRead(std::uint32_t pa, std::uint32_t count,
                    std::uint8_t *out) const;
    bool directWrite(std::uint32_t pa, std::uint32_t count,
                     const std::uint8_t *in);

    /**
     * Kernel-mode cache-visible access (WriteBack mode syscalls /
     * kernel ticks): reads through the data hierarchy.
     */
    Access kernelRead(std::uint32_t pa, std::uint32_t count,
                      std::uint8_t *out);

    /** Touch a line in L1I (kernel-handler instruction fetch analog). */
    void kernelTouchInstr(std::uint32_t pa);

    syskit::GuestMemory &memory() { return memory_; }
    const syskit::GuestMemory &memory() const { return memory_; }
    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    NextLinePrefetcher &l1dPrefetcher() { return pfD_; }
    NextLinePrefetcher &l1iPrefetcher() { return pfI_; }
    const HierConfig &config() const { return cfg_; }

    /** The nonzero counters of all three caches. */
    dfi::StatSet stats() const;

    /** Visit the pages of guest memory and of every cache and
     *  prefetcher array. */
    template <class Visit>
    void
    forEachPage(Visit &&visit) const
    {
        memory_.forEachPage(visit);
        for (const Cache *cache : {&l1i_, &l1d_, &l2_})
            cache->forEachPage(visit);
        pfD_.array().forEachPage(visit);
        pfI_.array().forEachPage(visit);
    }

    /** Heap bytes a copy owns outright (Cache::heapBytes). */
    std::uint64_t
    heapBytes() const
    {
        return l1i_.heapBytes() + l1d_.heapBytes() + l2_.heapBytes();
    }

    /** Upper bound on checkpointable state (budget accounting). */
    std::uint64_t
    approxStateBytes() const
    {
        return memory_.size() + l1i_.approxStateBytes() +
               l1d_.approxStateBytes() + l2_.approxStateBytes();
    }

  private:
    /** Access one-line-contained span through a given L1. */
    Access accessLine(Cache &l1, std::uint32_t pa, std::uint32_t count,
                      std::uint8_t *data, bool is_write, bool is_fetch);

    /** Ensure the line holding pa is in `l1`; returns {line, latency}. */
    std::pair<std::uint32_t, std::uint32_t>
    ensureLine(Cache &l1, std::uint32_t pa, bool is_write,
               bool is_fetch);

    /** Fill one line into L2 from memory; returns latency. */
    std::uint32_t ensureLineL2(std::uint32_t line_addr,
                               std::uint8_t *bytes);

    void handleL1Eviction(const Cache::Eviction &evicted);
    void handleL2Eviction(const Cache::Eviction &evicted);

    void prefetchInto(Cache &l1, NextLinePrefetcher &pf,
                      std::uint32_t miss_line);

    HierConfig cfg_;
    syskit::GuestMemory memory_;
    Cache l1i_, l1d_, l2_;
    NextLinePrefetcher pfD_, pfI_;
};

} // namespace dfi::uarch

#endif // DFI_UARCH_HIER_HH
