/**
 * @file
 * Next-line prefetcher (the "New" MaFIN components of Table IV).
 *
 * On a demand miss it requests the next sequential line.  Its one
 * piece of state — the last miss address register — is an injectable
 * array, as in MaFIN's added L1D/L1I prefetchers.
 */

#ifndef DFI_UARCH_PREFETCH_HH
#define DFI_UARCH_PREFETCH_HH

#include <cstdint>
#include <string>

#include "storage/faultable_array.hh"

namespace dfi::uarch
{

/** Sequential next-line prefetcher. */
class NextLinePrefetcher
{
  public:
    NextLinePrefetcher() = default;
    NextLinePrefetcher(std::string name, std::uint32_t line_bytes)
        : lineBytes_(line_bytes), state_(std::move(name), 1, 32)
    {
    }

    /**
     * Observe a demand miss; returns the line address to prefetch
     * (reads the injectable last-miss register on the way).
     */
    std::uint32_t
    onMiss(std::uint32_t line_addr)
    {
        state_.writeBits(0, 0, 32, line_addr);
        const auto recorded = static_cast<std::uint32_t>(
            state_.readBits(0, 0, 32));
        return recorded + lineBytes_;
    }

    dfi::FaultableArray &array() { return state_; }
    const dfi::FaultableArray &array() const { return state_; }

  private:
    std::uint32_t lineBytes_ = 64;
    dfi::FaultableArray state_;
};

} // namespace dfi::uarch

#endif // DFI_UARCH_PREFETCH_HH
