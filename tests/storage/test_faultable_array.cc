/**
 * @file
 * Unit and property tests for FaultableArray, including the watch
 * automaton used by the early-stop optimization.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "storage/faultable_array.hh"

namespace
{

using dfi::FaultableArray;
using dfi::Rng;
using dfi::WatchState;

TEST(FaultableArray, GeometryAndTotalBits)
{
    FaultableArray a("rf", 256, 32);
    EXPECT_EQ(a.numEntries(), 256u);
    EXPECT_EQ(a.bitsPerEntry(), 32u);
    EXPECT_EQ(a.totalBits(), 256u * 32u);
}

TEST(FaultableArray, StartsZeroed)
{
    FaultableArray a("z", 8, 64);
    for (std::size_t e = 0; e < 8; ++e)
        EXPECT_EQ(a.readBits(e, 0, 64), 0u);
}

TEST(FaultableArray, BitsRoundTrip)
{
    FaultableArray a("rt", 4, 48);
    a.writeBits(2, 5, 31, 0x5a5a5a5aull & 0x7fffffffull);
    EXPECT_EQ(a.readBits(2, 5, 31), 0x5a5a5a5aull & 0x7fffffffull);
    // neighbours untouched
    EXPECT_EQ(a.readBits(2, 0, 5), 0u);
    EXPECT_EQ(a.readBits(2, 36, 12), 0u);
}

TEST(FaultableArray, CrossWordAccess)
{
    FaultableArray a("cw", 2, 128);
    a.writeBits(1, 60, 16, 0xabcd);
    EXPECT_EQ(a.readBits(1, 60, 16), 0xabcdu);
    EXPECT_EQ(a.readBits(1, 60, 8), 0xcdu);
    EXPECT_EQ(a.readBits(1, 68, 8), 0xabu);
}

TEST(FaultableArray, FullWordWrite)
{
    FaultableArray a("fw", 2, 64);
    a.writeBits(0, 0, 64, ~0ull);
    EXPECT_EQ(a.readBits(0, 0, 64), ~0ull);
    a.writeBits(0, 0, 64, 0x0123456789abcdefull);
    EXPECT_EQ(a.readBits(0, 0, 64), 0x0123456789abcdefull);
}

TEST(FaultableArray, BytesRoundTrip)
{
    FaultableArray a("by", 4, 512); // cache-line-like rows
    std::vector<std::uint8_t> in(64), out(64);
    for (int i = 0; i < 64; ++i)
        in[i] = static_cast<std::uint8_t>(i * 7 + 3);
    a.writeBytes(3, 0, 64, in.data());
    a.readBytes(3, 0, 64, out.data());
    EXPECT_EQ(in, out);
}

TEST(FaultableArray, FlipBitTogglesExactlyOneBit)
{
    FaultableArray a("fl", 4, 32);
    a.writeBits(1, 0, 32, 0xffff0000u);
    a.flipBit(1, 16);
    EXPECT_EQ(a.readBits(1, 0, 32), 0xfffe0000u);
    a.flipBit(1, 16);
    EXPECT_EQ(a.readBits(1, 0, 32), 0xffff0000u);
}

TEST(FaultableArray, ForceBitSetsValue)
{
    FaultableArray a("fo", 2, 8);
    a.forceBit(0, 3, true);
    EXPECT_TRUE(a.peekBit(0, 3));
    a.forceBit(0, 3, false);
    EXPECT_FALSE(a.peekBit(0, 3));
}

TEST(FaultableArray, ClearEntryZeroesRow)
{
    FaultableArray a("ce", 2, 96);
    a.writeBits(1, 0, 64, ~0ull);
    a.writeBits(1, 64, 32, 0xffffffffull);
    a.clearEntry(1);
    EXPECT_EQ(a.readBits(1, 0, 64), 0u);
    EXPECT_EQ(a.readBits(1, 64, 32), 0u);
}

// --- watch automaton ----------------------------------------------------

TEST(FaultableArray, CheckpointCopySharesCowPages)
{
    // 4096 x 64-bit rows -> 4096 backing words -> 8 pages of 512
    // words.  Write one word per page to materialise distinct pages.
    FaultableArray a("cow", 4096, 64);
    for (std::size_t e = 0; e < 4096; e += 512)
        a.writeBits(e, 0, 64, e + 1);
    ASSERT_EQ(a.backingPages(), 8u);
    EXPECT_EQ(a.sharedBackingPages(), 0u);

    // A checkpoint copy shares every page with its source...
    FaultableArray b = a;
    EXPECT_EQ(b.sharedBackingPages(), 8u);
    EXPECT_EQ(a.sharedBackingPages(), 8u);

    // ...reads never privatise one...
    for (std::size_t e = 0; e < 4096; ++e)
        (void)b.readBits(e, 0, 64);
    EXPECT_EQ(b.sharedBackingPages(), 8u);

    // ...and a single write privatises exactly the touched page,
    // invisibly to the source.
    b.flipBit(0, 0);
    EXPECT_EQ(b.sharedBackingPages(), 7u);
    EXPECT_EQ(a.sharedBackingPages(), 7u);
    // Entry 0 was seeded with value 1, so the flip clears its bit 0
    // in the copy while the source keeps it.
    EXPECT_FALSE(b.peekBit(0, 0));
    EXPECT_TRUE(a.peekBit(0, 0));
    EXPECT_EQ(b.readBits(512, 0, 64), 513u);
}

TEST(FaultableArray, FreshArrayAliasesOneFillPage)
{
    // A newly built array materialises a single zero page no matter
    // its logical size: every page-table slot aliases it.
    FaultableArray a("fill", 4096, 64);
    ASSERT_EQ(a.backingPages(), 8u);
    EXPECT_EQ(a.sharedBackingPages(), 8u);
    EXPECT_EQ(a.storageBytes(), 8u * 4096u);

    // First write to any page unshares just that slot.
    a.writeBit(0, 0, true);
    EXPECT_EQ(a.sharedBackingPages(), 7u);
}

TEST(FaultableArray, PageWalkReportsSharedPagesAtOneAddress)
{
    auto pages = [](const FaultableArray &array) {
        std::vector<const void *> out;
        array.forEachPage([&out](const void *page, std::size_t bytes) {
            EXPECT_EQ(bytes, 4096u);
            out.push_back(page);
        });
        return out;
    };
    // Every slot of a fresh array reports its one fill page...
    FaultableArray a("walk", 4096, 64);
    const std::vector<const void *> fresh = pages(a);
    ASSERT_EQ(fresh.size(), 8u);
    for (const void *page : fresh)
        EXPECT_EQ(page, fresh[0]);

    // ...and a copy that writes row 512 (page 1) reports a page of its
    // own for that slot alone.
    FaultableArray b = a;
    b.writeBits(512, 0, 64, 1);
    const std::vector<const void *> written = pages(b);
    ASSERT_EQ(written.size(), 8u);
    for (std::size_t slot = 0; slot < written.size(); ++slot)
        EXPECT_EQ(written[slot] == fresh[slot], slot != 1) << slot;
    EXPECT_EQ(pages(a), fresh);
}

TEST(FaultableArrayWatch, ReadFirstDetected)
{
    FaultableArray a("w1", 8, 32);
    a.armWatch(3, 17);
    EXPECT_EQ(a.watchState(), WatchState::Armed);
    (void)a.readBits(3, 0, 32); // covers bit 17
    EXPECT_EQ(a.watchState(), WatchState::ReadFirst);
    // Later overwrites don't change the verdict.
    a.writeBits(3, 0, 32, 0);
    EXPECT_EQ(a.watchState(), WatchState::ReadFirst);
}

TEST(FaultableArrayWatch, WrittenFirstDetected)
{
    FaultableArray a("w2", 8, 32);
    a.armWatch(2, 5);
    a.writeBits(2, 0, 32, 0x1234);
    EXPECT_EQ(a.watchState(), WatchState::WrittenFirst);
    (void)a.readBits(2, 0, 32);
    EXPECT_EQ(a.watchState(), WatchState::WrittenFirst);
}

TEST(FaultableArrayWatch, UncoveredAccessesIgnored)
{
    FaultableArray a("w3", 8, 32);
    a.armWatch(2, 20);
    (void)a.readBits(2, 0, 16);   // does not cover bit 20
    a.writeBits(2, 0, 16, 0xff);  // does not cover bit 20
    (void)a.readBits(3, 0, 32);   // other entry
    EXPECT_EQ(a.watchState(), WatchState::Armed);
    (void)a.readBits(2, 16, 8); // covers 16..23
    EXPECT_EQ(a.watchState(), WatchState::ReadFirst);
}

TEST(FaultableArrayWatch, ClearEntryCountsAsOverwrite)
{
    FaultableArray a("w4", 8, 32);
    a.armWatch(5, 1);
    a.clearEntry(5);
    EXPECT_EQ(a.watchState(), WatchState::WrittenFirst);
}

TEST(FaultableArrayWatch, FaultPrimitivesAreNotAccesses)
{
    FaultableArray a("w5", 8, 32);
    a.armWatch(1, 4);
    a.flipBit(1, 4);
    a.forceBit(1, 4, true);
    (void)a.peekBit(1, 4);
    EXPECT_EQ(a.watchState(), WatchState::Armed);
}

TEST(FaultableArrayWatch, ClearWatchDisarms)
{
    FaultableArray a("w6", 4, 16);
    a.armWatch(0, 0);
    a.clearWatch();
    (void)a.readBits(0, 0, 16);
    EXPECT_EQ(a.watchState(), WatchState::Idle);
}

// --- property test: random ops against a reference model ----------------

TEST(FaultableArrayProperty, MatchesReferenceModel)
{
    const std::size_t entries = 16, bits = 96;
    FaultableArray a("prop", entries, bits);
    std::vector<std::vector<bool>> model(entries,
                                         std::vector<bool>(bits, false));
    Rng rng(2026);

    for (int step = 0; step < 20000; ++step) {
        const auto entry = rng.nextBounded(entries);
        const auto op = rng.nextBounded(4);
        if (op == 0) { // write
            const auto width = 1 + rng.nextBounded(64);
            const auto bit = rng.nextBounded(bits - width + 1);
            const auto value = rng.next64();
            a.writeBits(entry, bit, width, value);
            for (std::size_t i = 0; i < width; ++i)
                model[entry][bit + i] = (value >> i) & 1;
        } else if (op == 1) { // read & compare
            const auto width = 1 + rng.nextBounded(64);
            const auto bit = rng.nextBounded(bits - width + 1);
            const auto got = a.readBits(entry, bit, width);
            std::uint64_t want = 0;
            for (std::size_t i = 0; i < width; ++i)
                want |= static_cast<std::uint64_t>(model[entry][bit + i])
                        << i;
            ASSERT_EQ(got, want) << "step " << step;
        } else if (op == 2) { // flip
            const auto bit = rng.nextBounded(bits);
            a.flipBit(entry, bit);
            model[entry][bit] = !model[entry][bit];
        } else { // force
            const auto bit = rng.nextBounded(bits);
            const bool v = rng.nextBool();
            a.forceBit(entry, bit, v);
            model[entry][bit] = v;
        }
    }
}

/** Captures every onAccess callback for inspection. */
struct RecordingObserver : dfi::AccessObserver
{
    struct Event
    {
        std::size_t entry, bit, width;
        bool write;
    };
    std::vector<Event> events;

    void
    onAccess(const FaultableArray &, std::size_t entry,
             std::size_t bit, std::size_t width, bool is_write) override
    {
        events.push_back({entry, bit, width, is_write});
    }
};

TEST(FaultableArray, ObserverSeesArchitecturalAccessesOnly)
{
    FaultableArray a("rf", 8, 32);
    RecordingObserver obs;
    a.setObserver(&obs);

    a.writeBits(2, 4, 8, 0xff);
    a.readBits(2, 4, 8);
    a.clearEntry(3); // whole-entry write
    a.flipBit(2, 5); // fault application: silent
    a.forceBit(2, 6, true);
    a.peekBit(2, 5);

    ASSERT_EQ(obs.events.size(), 3u);
    EXPECT_TRUE(obs.events[0].write);
    EXPECT_EQ(obs.events[0].entry, 2u);
    EXPECT_EQ(obs.events[0].bit, 4u);
    EXPECT_EQ(obs.events[0].width, 8u);
    EXPECT_FALSE(obs.events[1].write);
    EXPECT_TRUE(obs.events[2].write);
    EXPECT_EQ(obs.events[2].entry, 3u);
    EXPECT_EQ(obs.events[2].bit, 0u);
    EXPECT_EQ(obs.events[2].width, 32u);

    // Detaching stops the callbacks.
    a.setObserver(nullptr);
    a.readBits(2, 0, 1);
    EXPECT_EQ(obs.events.size(), 3u);
}

TEST(FaultableArray, CopiesDoNotCarryTheObserver)
{
    FaultableArray a("rf", 4, 16);
    RecordingObserver obs;
    a.setObserver(&obs);

    FaultableArray copied(a);
    copied.writeBits(1, 0, 4, 0xf);
    FaultableArray assigned("other", 4, 16);
    assigned = a;
    assigned.writeBits(1, 0, 4, 0xf);

    // Only the original reports; a checkpoint-restored core copy
    // must not feed events into the planner's tracer.
    EXPECT_TRUE(obs.events.empty());
    a.writeBits(1, 0, 4, 0xf);
    EXPECT_EQ(obs.events.size(), 1u);
    // And the copy kept the data it was copied from.
    EXPECT_EQ(copied.readBits(1, 0, 4), 0xfu);
}

} // namespace
