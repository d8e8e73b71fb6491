/**
 * @file
 * Copy-on-write paged buffer backing the simulator's bulk state.
 *
 * Checkpointing a core is plain copy construction; before this layer
 * a snapshot copy materialised every byte of the memory image and of
 * every FaultableArray, so restore cost scaled with *core size*.
 * CowBuffer splits the backing store into fixed-size pages held by
 * shared_ptr: copying a buffer copies only the page table, and a page
 * is cloned the first time a writer touches it while it is still
 * shared.  Restoring a run from a checkpoint therefore costs
 * O(pages the run actually writes), not O(core size).
 *
 * A page's payload address is its identity: forEachPage() reports it
 * for every page-table slot, so a walk over many buffers (a stack of
 * checkpoint snapshots) that counts each address once measures the
 * page memory they keep alive (CheckpointStore::heldBytes).
 *
 * Thread-safety: the campaign executor copies worker cores from
 * *const* checkpoints.  shared_ptr's reference count is atomic, so
 * concurrent copies from (and reads of) a shared page are safe; and a
 * page whose use_count() is exactly 1 is reachable only through the
 * one buffer being mutated, so the clone-on-write path never races.
 * The only requirement is the usual one: no other thread may mutate
 * the same CowBuffer object concurrently.
 */

#ifndef DFI_STORAGE_COW_BUFFER_HH
#define DFI_STORAGE_COW_BUFFER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dfi
{

/** Paged value store; PageElems must be a power of two. */
template <typename T, std::size_t PageElems>
class CowBuffer
{
    static_assert(PageElems > 0 &&
                      (PageElems & (PageElems - 1)) == 0,
                  "PageElems must be a power of two");

  public:
    CowBuffer() = default;

    /** `size` elements, all set to `fill`. */
    CowBuffer(std::size_t size, T fill) : size_(size)
    {
        if (size == 0)
            return;
        // Every slot starts out aliasing one fill page, so a fresh
        // buffer owns a single materialised page no matter how large
        // its logical size is.
        auto page = std::make_shared<Page>();
        page->elems.fill(fill);
        pages_.assign((size + PageElems - 1) / PageElems, page);
    }

    std::size_t size() const { return size_; }

    T get(std::size_t index) const
    {
        return pages_[index / PageElems]->elems[index % PageElems];
    }

    void set(std::size_t index, T value) { ref(index) = value; }

    /** Mutable element access; clones the page if it is shared. */
    T &
    ref(std::size_t index)
    {
        return mutablePage(index / PageElems)
            .elems[index % PageElems];
    }

    /** Page-table length (materialised or shared). */
    std::size_t pageCount() const { return pages_.size(); }

    /** Pages still shared with a sibling buffer or page slot. */
    std::size_t
    sharedPageCount() const
    {
        std::size_t shared = 0;
        for (const auto &page : pages_) {
            if (page.use_count() > 1)
                ++shared;
        }
        return shared;
    }

    static constexpr std::size_t
    pageBytes()
    {
        return PageElems * sizeof(T);
    }

    /**
     * Call visit(page, bytes) for every page-table slot, in order:
     * `page` is the page's payload, one address for every slot,
     * buffer and copy that shares the page, and `bytes` its size.
     */
    template <class Visit>
    void
    forEachPage(Visit &&visit) const
    {
        for (const auto &page : pages_)
            visit(static_cast<const void *>(page->elems.data()),
                  pageBytes());
    }

  private:
    struct Page
    {
        std::array<T, PageElems> elems;
    };

    Page &
    mutablePage(std::size_t index)
    {
        std::shared_ptr<Page> &slot = pages_[index];
        if (slot.use_count() != 1)
            slot = std::make_shared<Page>(*slot);
        return *slot;
    }

    std::size_t size_ = 0;
    std::vector<std::shared_ptr<Page>> pages_;
};

} // namespace dfi

#endif // DFI_STORAGE_COW_BUFFER_HH
