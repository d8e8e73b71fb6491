/**
 * @file
 * Set-associative write-back cache with bit-accurate, injectable
 * tag / data / valid arrays.
 *
 * The tag, data and valid arrays are FaultableArrays: a flipped tag
 * bit makes a resident line unreachable (or aliases it onto another
 * address — including a corrupted write-back address), a flipped
 * valid bit drops or resurrects a line, and flipped data bits ride
 * through loads, fetches, forwards and write-backs exactly as in the
 * paper's extended MARSS/gem5 models.  Dirty bits and LRU state are
 * plain simulator state (not Table IV injection targets).
 */

#ifndef DFI_UARCH_CACHE_HH
#define DFI_UARCH_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "storage/faultable_array.hh"

namespace dfi::uarch
{

/**
 * Events one cache counts, named `<cache>.<event>` (e.g.
 * "l1d.read_hits") in the core's StatSet.
 */
enum class CacheStat : std::uint8_t
{
    ReadAccesses,
    WriteAccesses,
    ReadHits,
    WriteHits,
    ReadMisses,
    WriteMisses,
    Replacements,
    Writebacks,
    Fills,
    FillLost,   //!< counted by MemHierarchy for an unreachable fill
    Prefetches, //!< counted by MemHierarchy for a next-line prefetch
    Count
};

/** Geometry of one cache. */
struct CacheConfig
{
    std::string name;          //!< stat prefix, e.g. "l1d"
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t lineBytes = 64;
    std::uint32_t ways = 4;
    std::uint32_t hitLatency = 2;
};

/** One write-back cache level. */
class Cache
{
  public:
    Cache() = default;
    explicit Cache(const CacheConfig &config);

    const CacheConfig &config() const { return cfg_; }
    std::uint32_t numSets() const { return sets_; }
    std::uint32_t numLines() const { return sets_ * cfg_.ways; }

    /** Result of a lookup. */
    struct Lookup
    {
        bool hit = false;
        std::uint32_t line = 0; //!< line index when hit
    };

    /**
     * Probe for `addr`'s line; updates LRU and hit/miss statistics.
     * Reads the valid and tag arrays (fault-visible).
     */
    Lookup access(std::uint32_t addr, bool is_write);

    /** Probe without LRU/stat side effects (and without array reads). */
    bool probe(std::uint32_t addr) const;

    /** Evicted-line descriptor returned by fill(). */
    struct Eviction
    {
        bool valid = false;
        bool dirty = false;
        std::uint32_t addr = 0; //!< reconstructed from the tag array
        std::vector<std::uint8_t> bytes;
    };

    /**
     * Install the line containing `addr` with the given bytes
     * (lineBytes of them); returns the victim.  Counts a replacement
     * of a valid line in the statistics.
     */
    Eviction fill(std::uint32_t addr, const std::uint8_t *bytes);

    /**
     * Install only the tag/valid state for `addr` (no data-array
     * traffic; the eviction carries no bytes).  This is the original
     * MARSS behaviour before the MaFIN data-array extension —
     * timing-complete, injection-blind.
     */
    Eviction fillTagsOnly(std::uint32_t addr);

    /** Read bytes within a resident line (data array read). */
    void readLine(std::uint32_t line, std::uint32_t offset,
                  std::uint32_t count, std::uint8_t *out) const;

    /** Write bytes within a resident line; marks it dirty. */
    void writeLine(std::uint32_t line, std::uint32_t offset,
                   std::uint32_t count, const std::uint8_t *in);

    /** Line-aligned base address of `addr`. */
    std::uint32_t
    lineAddr(std::uint32_t addr) const
    {
        return addr & ~(cfg_.lineBytes - 1);
    }

    /** True when the line is live (valid-bit array read). */
    bool lineValid(std::uint32_t line) const;

    /** This cache's event counters. */
    dfi::Counters<CacheStat> &counters() { return counters_; }
    const dfi::Counters<CacheStat> &counters() const { return counters_; }

    /** The nonzero counters, named `<cache>.<event>`. */
    dfi::StatSet stats() const;

    /** Injectable arrays. */
    dfi::FaultableArray &tagArray() { return tags_; }
    dfi::FaultableArray &dataArray() { return data_; }
    dfi::FaultableArray &validArray() { return valid_; }

    /** Serialize dynamic state (arrays, dirty/LRU books, counters). */
    template <class Ar> void serializeState(Ar &ar);

    /** Upper bound on checkpointable state (budget accounting). */
    std::uint64_t
    approxStateBytes() const
    {
        return tags_.storageBytes() + data_.storageBytes() +
               valid_.storageBytes() + dirty_.size() +
               lruStamp_.size() * sizeof(std::uint64_t);
    }

  private:
    std::uint32_t setOf(std::uint32_t addr) const;
    std::uint32_t tagOf(std::uint32_t addr) const;
    std::uint32_t rebuildAddr(std::uint32_t set,
                              std::uint32_t tag) const;

    CacheConfig cfg_;
    std::uint32_t sets_ = 0;
    std::uint32_t offsetBits_ = 0;
    std::uint32_t setBits_ = 0;
    std::uint32_t tagBits_ = 0;

    dfi::FaultableArray tags_;
    dfi::FaultableArray data_;
    dfi::FaultableArray valid_;
    std::vector<std::uint8_t> dirty_;
    std::vector<std::uint64_t> lruStamp_;
    std::uint64_t stamp_ = 0;
    dfi::Counters<CacheStat> counters_;
};

} // namespace dfi::uarch

#endif // DFI_UARCH_CACHE_HH
