/**
 * @file
 * Bit-accurate storage array with fault-injection and access-tracking
 * hooks.
 *
 * Every injectable microarchitectural structure (register files, cache
 * tag/data/valid arrays, queues, TLBs, BTBs, prefetcher state) is
 * backed by a FaultableArray of `entries x bitsPerEntry` real bits.
 * Faults are realized by mutating these bits — a transient flip, or a
 * stuck-at value reasserted each cycle by the FaultDomain — and then
 * propagate through the simulator only via ordinary reads of the
 * array.  No fault outcome is ever scripted.
 *
 * The array additionally supports a single *watch* on one bit, used by
 * the campaign controller's early-stop optimization (paper §III.B):
 * after injecting, the controller watches the faulted bit and stops
 * the run as soon as the first access is a full overwrite (fault
 * guaranteed masked) instead of a read.
 *
 * The class is value-semantic; simulator checkpointing copies it
 * wholesale.  The backing words live in a copy-on-write paged buffer
 * (storage/cow_buffer.hh), so a checkpoint copy shares every page
 * with its source until one side writes it — restores cost
 * O(touched pages), not O(array size).
 */

#ifndef DFI_STORAGE_FAULTABLE_ARRAY_HH
#define DFI_STORAGE_FAULTABLE_ARRAY_HH

#include <cstdint>
#include <string>

#include "storage/cow_buffer.hh"

namespace dfi
{

class FaultableArray;

/**
 * Observer of every watch-visible access to a FaultableArray.
 *
 * The prune pass (inject/prune.hh) attaches one observer per traced
 * structure during a single golden re-run and records the full access
 * trace; per-site classification then replays that trace analytically
 * instead of simulating each fault.  Unlike the single-bit watch the
 * observer sees *all* accesses, read and write, of every entry.
 *
 * Fault-application primitives (flipBit/forceBit/peekBit) stay
 * invisible, exactly as they are to the watch.
 */
class AccessObserver
{
  public:
    virtual ~AccessObserver() = default;
    /** One access of `width` bits starting at `bit` of row `entry`. */
    virtual void onAccess(const FaultableArray &array, std::size_t entry,
                          std::size_t bit, std::size_t width,
                          bool is_write) = 0;
};

/** What happened first to a watched bit after fault injection. */
enum class WatchState : std::uint8_t
{
    Idle,        //!< no watch armed
    Armed,       //!< armed, no access seen yet
    ReadFirst,   //!< the faulted bit was read before being overwritten
    WrittenFirst //!< the faulted bit was overwritten before any read
};

/** Fixed-geometry array of raw bits with fault and watch hooks. */
class FaultableArray
{
  public:
    FaultableArray() = default;

    /**
     * Build an array.
     * @param name debugging name, e.g. "l1d.data"
     * @param entries number of rows
     * @param bits_per_entry bits in each row (may exceed 64)
     */
    FaultableArray(std::string name, std::size_t entries,
                   std::size_t bits_per_entry);

    // The array is value-semantic (checkpoints copy it wholesale), but
    // an attached access observer is a property of the *live* array
    // being traced, not of the stored bits: copies (checkpoints,
    // snapshots) must not report accesses.  Copy everything except the
    // observer pointer; moves transfer it with the identity.
    FaultableArray(const FaultableArray &other)
        : name_(other.name_), entries_(other.entries_),
          bitsPerEntry_(other.bitsPerEntry_),
          wordsPerEntry_(other.wordsPerEntry_), words_(other.words_),
          watchEntry_(other.watchEntry_), watchBit_(other.watchBit_),
          watchState_(other.watchState_)
    {
    }
    FaultableArray &operator=(const FaultableArray &other)
    {
        if (this != &other) {
            name_ = other.name_;
            entries_ = other.entries_;
            bitsPerEntry_ = other.bitsPerEntry_;
            wordsPerEntry_ = other.wordsPerEntry_;
            words_ = other.words_;
            watchEntry_ = other.watchEntry_;
            watchBit_ = other.watchBit_;
            watchState_ = other.watchState_;
            observer_ = nullptr;
        }
        return *this;
    }
    FaultableArray(FaultableArray &&) = default;
    FaultableArray &operator=(FaultableArray &&) = default;

    const std::string &name() const { return name_; }
    std::size_t numEntries() const { return entries_; }
    std::size_t bitsPerEntry() const { return bitsPerEntry_; }
    /** Total bit count, the `N` of the statistical-sampling formula. */
    std::uint64_t totalBits() const
    {
        return static_cast<std::uint64_t>(entries_) * bitsPerEntry_;
    }

    /**
     * Read up to 64 bits starting at bit offset `bit` of row `entry`.
     * Counts as an access for watch purposes.
     */
    std::uint64_t
    readBits(std::size_t entry, std::size_t bit, std::size_t width) const
    {
        checkBounds(entry, bit, width);
        noteRead(entry, bit, width);

        const std::size_t base = entry * wordsPerEntry_;
        const std::size_t word = bit / 64;
        const std::size_t shift = bit % 64;

        std::uint64_t value = words_.get(base + word) >> shift;
        if (shift != 0 && shift + width > 64)
            value |= words_.get(base + word + 1) << (64 - shift);
        if (width < 64)
            value &= (1ull << width) - 1;
        return value;
    }

    /** Write up to 64 bits; counts as an overwrite of covered bits. */
    void
    writeBits(std::size_t entry, std::size_t bit, std::size_t width,
              std::uint64_t value)
    {
        checkBounds(entry, bit, width);
        noteWrite(entry, bit, width);

        const std::size_t base = entry * wordsPerEntry_;
        const std::size_t word = bit / 64;
        const std::size_t shift = bit % 64;
        const std::uint64_t mask =
            width == 64 ? ~0ull : ((1ull << width) - 1);

        std::uint64_t &low = words_.ref(base + word);
        low &= ~(mask << shift);
        low |= (value & mask) << shift;
        if (shift != 0 && shift + width > 64) {
            const std::size_t spill = shift + width - 64;
            const std::uint64_t spill_mask = (1ull << spill) - 1;
            std::uint64_t &high = words_.ref(base + word + 1);
            high &= ~spill_mask;
            high |= (value & mask) >> (64 - shift);
        }
    }

    /** Read a whole byte-aligned span of a row into `out`. */
    void readBytes(std::size_t entry, std::size_t byte_offset,
                   std::size_t count, std::uint8_t *out) const;

    /** Write a whole byte-aligned span of a row. */
    void writeBytes(std::size_t entry, std::size_t byte_offset,
                    std::size_t count, const std::uint8_t *in);

    /** Single-bit accessors (watch-visible). */
    bool
    readBit(std::size_t entry, std::size_t bit) const
    {
        return readBits(entry, bit, 1) != 0;
    }

    void
    writeBit(std::size_t entry, std::size_t bit, bool value)
    {
        writeBits(entry, bit, 1, value ? 1 : 0);
    }

    /** Zero an entire row (counts as overwrite of all its bits). */
    void clearEntry(std::size_t entry);

    /**
     * Fault-application primitives.  These mutate backing bits without
     * touching the watch (the injection itself is not an "access").
     */
    void flipBit(std::size_t entry, std::size_t bit);
    void forceBit(std::size_t entry, std::size_t bit, bool value);
    bool peekBit(std::size_t entry, std::size_t bit) const;

    /** Arm the early-stop watch on one bit (replaces any previous). */
    void armWatch(std::size_t entry, std::size_t bit);
    /** Disarm the watch. */
    void clearWatch();
    /** Current watch verdict. */
    WatchState watchState() const { return watchState_; }

    /**
     * Attach (or detach with nullptr) a full access-trace observer.
     * Not owned; the caller keeps it alive while attached.
     */
    void setObserver(AccessObserver *observer) { observer_ = observer; }

    /** Visit the backing pages (CowBuffer::forEachPage). */
    template <class Visit>
    void
    forEachPage(Visit &&visit) const
    {
        words_.forEachPage(visit);
    }

    /** Backing pages (checkpoint memory-budget accounting). */
    std::size_t backingPages() const { return words_.pageCount(); }
    /** Pages still shared with a checkpoint or sibling copy. */
    std::size_t sharedBackingPages() const
    {
        return words_.sharedPageCount();
    }
    /** Upper bound on materialised backing bytes. */
    std::uint64_t storageBytes() const
    {
        return static_cast<std::uint64_t>(words_.pageCount()) *
               WordBuffer::pageBytes();
    }

  private:
    // The accessors above sit on the simulator's per-cycle path, so
    // they and their checks are inline; only the panic is not.
    void
    checkBounds(std::size_t entry, std::size_t bit,
                std::size_t width) const
    {
        if (entry >= entries_ || width > 64 || bit + width > bitsPerEntry_)
            outOfBounds(entry, bit, width);
    }

    [[noreturn]] void outOfBounds(std::size_t entry, std::size_t bit,
                                  std::size_t width) const;

    void
    noteRead(std::size_t entry, std::size_t bit, std::size_t width) const
    {
        if (observer_)
            observer_->onAccess(*this, entry, bit, width, false);
        if (watchState_ == WatchState::Armed && entry == watchEntry_ &&
            watchBit_ >= bit && watchBit_ < bit + width)
            watchState_ = WatchState::ReadFirst;
    }

    void
    noteWrite(std::size_t entry, std::size_t bit, std::size_t width)
    {
        if (observer_)
            observer_->onAccess(*this, entry, bit, width, true);
        if (watchState_ == WatchState::Armed && entry == watchEntry_ &&
            watchBit_ >= bit && watchBit_ < bit + width)
            watchState_ = WatchState::WrittenFirst;
    }

    /** 4 KiB copy-on-write pages of backing words. */
    using WordBuffer = CowBuffer<std::uint64_t, 512>;

    std::string name_;
    std::size_t entries_ = 0;
    std::size_t bitsPerEntry_ = 0;
    std::size_t wordsPerEntry_ = 0;
    WordBuffer words_;

    std::size_t watchEntry_ = 0;
    std::size_t watchBit_ = 0;
    // Mutable: reads are logically const for callers but advance the
    // watch automaton (and notify the trace observer).
    mutable WatchState watchState_ = WatchState::Idle;
    mutable AccessObserver *observer_ = nullptr;
};

} // namespace dfi

#endif // DFI_STORAGE_FAULTABLE_ARRAY_HH
