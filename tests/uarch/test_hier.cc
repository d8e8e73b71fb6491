/**
 * @file
 * Tests for the memory hierarchy, focused on the Shadow-vs-WriteBack
 * divergence that carries the paper's Remark 3: in the MARSS-like
 * Shadow mode main memory is authoritative and the hypervisor bypasses
 * the caches; in the gem5-like WriteBack mode dirty data exists only
 * in the arrays.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "syskit/memory.hh"
#include "uarch/hier.hh"

namespace
{

using namespace dfi;
using namespace dfi::uarch;

HierConfig
smallHier(HierMode mode)
{
    HierConfig cfg;
    cfg.mode = mode;
    cfg.l1i = CacheConfig{"l1i", 2048, 64, 2, 1};
    cfg.l1d = CacheConfig{"l1d", 2048, 64, 2, 1};
    cfg.l2 = CacheConfig{"l2", 8192, 64, 4, 4};
    return cfg;
}

syskit::GuestMemory
filledMemory()
{
    syskit::GuestMemory memory(0x20000, 0x2000);
    for (std::uint32_t a = 0x2000; a < 0x3000; a += 4)
        (void)memory.write(a, 4, a);
    return memory;
}

TEST(Hier, ReadThroughHierarchyReturnsMemoryData)
{
    for (auto mode : {HierMode::Shadow, HierMode::WriteBack}) {
        MemHierarchy hier(smallHier(mode), filledMemory());
        std::uint8_t bytes[4];
        const auto access = hier.read(0x2040, 4, bytes);
        EXPECT_TRUE(access.ok);
        EXPECT_GT(access.latency, 0u);
        std::uint32_t value = bytes[0] | (bytes[1] << 8) |
                              (bytes[2] << 16) | (bytes[3] << 24);
        EXPECT_EQ(value, 0x2040u);
        // Second read hits.
        const auto again = hier.read(0x2040, 4, bytes);
        EXPECT_LT(again.latency, access.latency);
    }
}

TEST(Hier, ShadowWritesAreVisibleInMemoryImmediately)
{
    MemHierarchy hier(smallHier(HierMode::Shadow), filledMemory());
    const std::uint8_t data[4] = {0xde, 0xad, 0xbe, 0xef};
    hier.write(0x2100, 4, data);
    std::uint8_t direct[4] = {};
    ASSERT_TRUE(hier.directRead(0x2100, 4, direct));
    EXPECT_EQ(direct[0], 0xde);
}

TEST(Hier, WriteBackKeepsDirtyDataOutOfMemory)
{
    MemHierarchy hier(smallHier(HierMode::WriteBack), filledMemory());
    const std::uint8_t data[4] = {0xde, 0xad, 0xbe, 0xef};
    hier.write(0x2100, 4, data);
    std::uint8_t direct[4] = {};
    ASSERT_TRUE(hier.directRead(0x2100, 4, direct));
    // Main memory still has the old value: the line is dirty in L1D.
    EXPECT_NE(direct[0], 0xde);
    // But a hierarchy read sees the new value.
    std::uint8_t via_cache[4] = {};
    hier.read(0x2100, 4, via_cache);
    EXPECT_EQ(via_cache[0], 0xde);
}

TEST(Hier, ShadowMasksCacheFaultFromDirectReads)
{
    // The Remark 3 mechanism: a fault in the L1D data array is
    // invisible to the hypervisor's direct (QEMU) access.
    MemHierarchy hier(smallHier(HierMode::Shadow), filledMemory());
    std::uint8_t bytes[4];
    hier.read(0x2200, 4, bytes); // pull the line in
    // Fault every line of L1D (blunt but mode-agnostic).
    for (std::uint32_t line = 0; line < hier.l1d().numLines(); ++line)
        hier.l1d().dataArray().flipBit(line, 0);

    std::uint8_t direct[4] = {};
    ASSERT_TRUE(hier.directRead(0x2200, 4, direct));
    const std::uint32_t direct_value =
        direct[0] | (direct[1] << 8) | (direct[2] << 16) |
        (direct[3] << 24);
    EXPECT_EQ(direct_value, 0x2200u); // unaffected

    // ...while a CPU read through the cache sees the corruption.
    hier.read(0x2200, 4, bytes);
    const std::uint32_t cached_value = bytes[0] | (bytes[1] << 8) |
                                       (bytes[2] << 16) |
                                       (bytes[3] << 24);
    EXPECT_NE(cached_value, 0x2200u);
}

TEST(Hier, WriteBackExposesCacheFaultToKernelReads)
{
    MemHierarchy hier(smallHier(HierMode::WriteBack), filledMemory());
    std::uint8_t bytes[4];
    hier.read(0x2200, 4, bytes);
    for (std::uint32_t line = 0; line < hier.l1d().numLines(); ++line)
        hier.l1d().dataArray().flipBit(line, 0);
    std::uint8_t kernel[4] = {};
    hier.kernelRead(0x2200, 4, kernel);
    const std::uint32_t value = kernel[0] | (kernel[1] << 8) |
                                (kernel[2] << 16) | (kernel[3] << 24);
    EXPECT_NE(value, 0x2200u); // the kernel sees the fault
}

TEST(Hier, DirtyFaultEscapesViaEvictionInShadowMode)
{
    MemHierarchy hier(smallHier(HierMode::Shadow), filledMemory());
    const std::uint8_t data[4] = {0x11, 0x22, 0x33, 0x44};
    hier.write(0x2300, 4, data); // dirty line
    // Fault the dirty line's data.
    for (std::uint32_t line = 0; line < hier.l1d().numLines(); ++line) {
        if (hier.l1d().lineValid(line))
            hier.l1d().dataArray().forceBit(line, 0, true);
    }
    // Evict it by filling the set with conflicting lines
    // (2KB 2-way: same-set stride is 1KB).
    std::uint8_t sink[4];
    hier.read(0x2300 + 1024, 4, sink);
    hier.read(0x2300 + 2048, 4, sink);
    hier.read(0x2300 + 3072, 4, sink);
    // The fault has been written back over the authoritative copy.
    std::uint8_t direct[4] = {};
    ASSERT_TRUE(hier.directRead(0x2300, 4, direct));
    EXPECT_EQ(direct[0] & 1, 1);
}

TEST(Hier, SpanningAccessCrossesLines)
{
    MemHierarchy hier(smallHier(HierMode::WriteBack), filledMemory());
    // 4-byte read straddling a 64B line boundary.
    std::uint8_t bytes[4];
    const auto access = hier.read(0x2000 + 62, 4, bytes);
    EXPECT_TRUE(access.ok);
    EXPECT_GE(hier.l1d().counters().get(CacheStat::ReadAccesses), 2u);
}

TEST(Hier, UnmappedPhysicalAccessFails)
{
    MemHierarchy hier(smallHier(HierMode::WriteBack), filledMemory());
    std::uint8_t bytes[4];
    EXPECT_FALSE(hier.read(0xfffffff0, 4, bytes).ok);
    EXPECT_FALSE(hier.directRead(0xfffffff0, 4, bytes));
}

TEST(Hier, LineSizesMustMatchAndFitTheFillBuffer)
{
    // A longer L2 line would overflow the L1-sized fill buffer.
    HierConfig longer_l2 = smallHier(HierMode::WriteBack);
    longer_l2.l2.lineBytes = 128;
    EXPECT_THROW(MemHierarchy(longer_l2, filledMemory()), FatalError);

    HierConfig shorter_l1i = smallHier(HierMode::Shadow);
    shorter_l1i.l1i.lineBytes = 32;
    EXPECT_THROW(MemHierarchy(shorter_l1i, filledMemory()), FatalError);

    HierConfig too_long = smallHier(HierMode::WriteBack);
    too_long.l1i.lineBytes = 2 * kMaxLineBytes;
    too_long.l1d.lineBytes = 2 * kMaxLineBytes;
    too_long.l2.lineBytes = 2 * kMaxLineBytes;
    too_long.l2.sizeBytes = 4 * 2 * kMaxLineBytes;
    EXPECT_THROW(MemHierarchy(too_long, filledMemory()), FatalError);

    // Equal lines up to the bound are fine, and still move data.
    HierConfig equal = smallHier(HierMode::WriteBack);
    equal.l1i.lineBytes = 128;
    equal.l1d.lineBytes = 128;
    equal.l2.lineBytes = 128;
    MemHierarchy hier(equal, filledMemory());
    std::uint8_t bytes[4];
    ASSERT_TRUE(hier.read(0x2040, 4, bytes).ok);
    EXPECT_EQ(bytes[0] | (bytes[1] << 8) | (bytes[2] << 16) |
                  (bytes[3] << 24),
              0x2040);
}

TEST(Hier, OriginalMarssModeBypassesDataArrays)
{
    HierConfig cfg = smallHier(HierMode::Shadow);
    cfg.modelDataArrays = false;
    MemHierarchy hier(cfg, filledMemory());
    std::uint8_t bytes[4];
    hier.read(0x2400, 4, bytes);
    // Fault the arrays: reads must be unaffected (data lives in
    // memory only, as in stock MARSS).
    for (std::uint32_t line = 0; line < hier.l1d().numLines(); ++line)
        hier.l1d().dataArray().forceBit(line, 0, true);
    hier.read(0x2400, 4, bytes);
    const std::uint32_t value = bytes[0] | (bytes[1] << 8) |
                                (bytes[2] << 16) | (bytes[3] << 24);
    EXPECT_EQ(value, 0x2400u);
}

} // namespace
