#include "uarch/tlb.hh"

#include "syskit/layout.hh"

namespace dfi::uarch
{

namespace
{
constexpr std::uint32_t kPageBits = 12;
constexpr std::uint32_t kVpnBits = 20;

/** StatSet names of the TlbStat counters, in enum order. */
const char *const kTlbStatNames[] = {
    "hits",
    "misses",
};
} // namespace

Tlb::Tlb(std::string name, std::uint32_t entries,
         std::uint32_t miss_latency)
    : name_(std::move(name)), entries_(entries),
      missLatency_(miss_latency),
      array_(name_, entries, 1 + kVpnBits + kVpnBits)
{
}

Tlb::Result
Tlb::translate(std::uint32_t va)
{
    const std::uint32_t vpn = va >> kPageBits;
    const std::uint32_t offset = va & ((1u << kPageBits) - 1);
    const std::size_t index = vpn % entries_;

    Result result;
    const bool valid = array_.readBit(index, 0);
    const std::uint32_t tag = static_cast<std::uint32_t>(
        array_.readBits(index, 1, kVpnBits));
    if (valid && tag == vpn) {
        counters_.inc(TlbStat::Hits);
    } else {
        // Page walk: identity mapping fill.
        counters_.inc(TlbStat::Misses);
        result.latency = missLatency_;
        array_.writeBit(index, 0, true);
        array_.writeBits(index, 1, kVpnBits, vpn);
        array_.writeBits(index, 1 + kVpnBits, kVpnBits, vpn);
    }
    const std::uint32_t pfn = static_cast<std::uint32_t>(
        array_.readBits(index, 1 + kVpnBits, kVpnBits));
    result.pa = (pfn << kPageBits) | offset;
    return result;
}

bool
Tlb::entryLive(std::size_t index) const
{
    return array_.peekBit(index, 0);
}

dfi::StatSet
Tlb::stats() const
{
    return counters_.named(name_ + ".", kTlbStatNames);
}

} // namespace dfi::uarch
