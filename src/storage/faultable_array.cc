#include "storage/faultable_array.hh"

#include "common/logging.hh"

namespace dfi
{

FaultableArray::FaultableArray(std::string name, std::size_t entries,
                               std::size_t bits_per_entry)
    : name_(std::move(name)), entries_(entries),
      bitsPerEntry_(bits_per_entry),
      wordsPerEntry_((bits_per_entry + 63) / 64),
      words_(entries * wordsPerEntry_, 0)
{
    if (entries == 0 || bits_per_entry == 0)
        panic("FaultableArray %s: zero geometry", name_);
}

void
FaultableArray::outOfBounds(std::size_t entry, std::size_t bit,
                            std::size_t width) const
{
    panic("FaultableArray %s: access out of bounds "
          "(entry %s, bit %s, width %s)",
          name_, entry, bit, width);
}

void
FaultableArray::readBytes(std::size_t entry, std::size_t byte_offset,
                          std::size_t count, std::uint8_t *out) const
{
    // Hot path (cache lines, fetch groups): one bounds/watch check for
    // the whole span, then word-wise extraction.
    const std::size_t bit = byte_offset * 8;
    const std::size_t width = count * 8;
    if (entry >= entries_ || bit + width > bitsPerEntry_) {
        panic("FaultableArray %s: readBytes out of bounds "
              "(entry %s, byte %s, count %s)",
              name_, entry, byte_offset, count);
    }
    noteRead(entry, bit, width);
    const std::size_t base = entry * wordsPerEntry_;
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t b = bit + i * 8;
        out[i] = static_cast<std::uint8_t>(
            words_.get(base + b / 64) >> (b % 64));
    }
}

void
FaultableArray::writeBytes(std::size_t entry, std::size_t byte_offset,
                           std::size_t count, const std::uint8_t *in)
{
    const std::size_t bit = byte_offset * 8;
    const std::size_t width = count * 8;
    if (entry >= entries_ || bit + width > bitsPerEntry_) {
        panic("FaultableArray %s: writeBytes out of bounds "
              "(entry %s, byte %s, count %s)",
              name_, entry, byte_offset, count);
    }
    noteWrite(entry, bit, width);
    const std::size_t base = entry * wordsPerEntry_;
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t b = bit + i * 8;
        std::uint64_t &word = words_.ref(base + b / 64);
        word &= ~(0xffull << (b % 64));
        word |= static_cast<std::uint64_t>(in[i]) << (b % 64);
    }
}

void
FaultableArray::clearEntry(std::size_t entry)
{
    if (entry >= entries_)
        panic("FaultableArray %s: clearEntry out of bounds (%s)", name_,
              entry);
    if (observer_)
        observer_->onAccess(*this, entry, 0, bitsPerEntry_, true);
    if (watchState_ == WatchState::Armed && entry == watchEntry_)
        watchState_ = WatchState::WrittenFirst;
    const std::size_t base = entry * wordsPerEntry_;
    for (std::size_t w = 0; w < wordsPerEntry_; ++w)
        words_.set(base + w, 0);
}

void
FaultableArray::flipBit(std::size_t entry, std::size_t bit)
{
    checkBounds(entry, bit, 1);
    const std::size_t base = entry * wordsPerEntry_;
    words_.ref(base + bit / 64) ^= 1ull << (bit % 64);
}

void
FaultableArray::forceBit(std::size_t entry, std::size_t bit, bool value)
{
    checkBounds(entry, bit, 1);
    const std::size_t base = entry * wordsPerEntry_;
    const std::uint64_t mask = 1ull << (bit % 64);
    if (value)
        words_.ref(base + bit / 64) |= mask;
    else
        words_.ref(base + bit / 64) &= ~mask;
}

bool
FaultableArray::peekBit(std::size_t entry, std::size_t bit) const
{
    checkBounds(entry, bit, 1);
    const std::size_t base = entry * wordsPerEntry_;
    return (words_.get(base + bit / 64) >> (bit % 64)) & 1;
}

void
FaultableArray::armWatch(std::size_t entry, std::size_t bit)
{
    checkBounds(entry, bit, 1);
    watchEntry_ = entry;
    watchBit_ = bit;
    watchState_ = WatchState::Armed;
}

void
FaultableArray::clearWatch()
{
    watchState_ = WatchState::Idle;
}

template <class Ar>
void
FaultableArray::serializeState(Ar &ar)
{
    std::uint64_t entries = entries_;
    std::uint64_t bits_per_entry = bitsPerEntry_;
    serial::value(ar, entries);
    serial::value(ar, bits_per_entry);
    if constexpr (!Ar::kSaving) {
        if (entries != entries_ || bits_per_entry != bitsPerEntry_) {
            ar.fail("faultable array '" + name_ + "': geometry mismatch");
            return;
        }
    }
    serial::value(ar, words_);
    std::uint64_t watch_entry = watchEntry_;
    std::uint64_t watch_bit = watchBit_;
    serial::value(ar, watch_entry);
    serial::value(ar, watch_bit);
    serial::value(ar, watchState_);
    if constexpr (!Ar::kSaving) {
        watchEntry_ = static_cast<std::size_t>(watch_entry);
        watchBit_ = static_cast<std::size_t>(watch_bit);
        // Observers trace a live array; loaded state starts untraced.
        observer_ = nullptr;
    }
}

template void FaultableArray::serializeState(serial::Writer &);
template void FaultableArray::serializeState(serial::Reader &);

} // namespace dfi
