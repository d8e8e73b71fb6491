/**
 * @file
 * Direct-mapped TLB with injectable valid/tag/frame fields.
 *
 * The guest uses identity translation, but every access still goes
 * through the TLB arrays — so a fault in a tag produces false
 * misses/hits and a fault in a frame number redirects the access to a
 * different physical page, exactly the failure modes of a real TLB.
 *
 * Entry layout (one FaultableArray row): [valid:1][tag:20][pfn:20].
 */

#ifndef DFI_UARCH_TLB_HH
#define DFI_UARCH_TLB_HH

#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "storage/faultable_array.hh"

namespace dfi::uarch
{

/** Events a TLB counts, named `<tlb>.<event>` (e.g. "dtlb.hits"). */
enum class TlbStat : std::uint8_t
{
    Hits,
    Misses,
    Count
};

/** One TLB (instruction or data). */
class Tlb
{
  public:
    Tlb() = default;
    Tlb(std::string name, std::uint32_t entries,
        std::uint32_t miss_latency = 20);

    /** Result of a translation. */
    struct Result
    {
        std::uint32_t pa = 0;
        std::uint32_t latency = 0; //!< extra cycles (miss walk)
    };

    /** Translate a virtual address (fills the entry on miss). */
    Result translate(std::uint32_t va);

    const dfi::Counters<TlbStat> &counters() const { return counters_; }
    /** The nonzero counters, named `<tlb>.<event>`. */
    dfi::StatSet stats() const;

    dfi::FaultableArray &array() { return array_; }
    /** True when entry `index` currently holds a mapping. */
    bool entryLive(std::size_t index) const;

    /** Serialize the entry array and counters (cache spill). */
    template <class Ar> void serializeState(Ar &ar);

  private:
    std::string name_;
    std::uint32_t entries_ = 0;
    std::uint32_t missLatency_ = 20;
    dfi::FaultableArray array_;
    dfi::Counters<TlbStat> counters_;
};

} // namespace dfi::uarch

#endif // DFI_UARCH_TLB_HH
