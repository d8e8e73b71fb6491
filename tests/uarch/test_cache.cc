/**
 * @file
 * Unit tests for the injectable cache model: geometry, hit/miss/LRU
 * behaviour, write-back semantics, and the fault channels through the
 * tag/data/valid arrays.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "uarch/cache.hh"

namespace
{

using namespace dfi;
using namespace dfi::uarch;

CacheConfig
smallConfig()
{
    // 2KB, 64B lines, 2-way -> 16 sets, 32 lines.
    return CacheConfig{"c", 2048, 64, 2, 1};
}

TEST(Cache, Geometry)
{
    Cache cache(smallConfig());
    EXPECT_EQ(cache.numSets(), 16u);
    EXPECT_EQ(cache.numLines(), 32u);
    EXPECT_EQ(cache.dataArray().totalBits(), 32u * 512u);
    EXPECT_EQ(cache.validArray().totalBits(), 32u);
    // 32-bit address, 16 sets, 64B lines -> 32-4-6 = 22 tag bits.
    EXPECT_EQ(cache.tagArray().bitsPerEntry(), 22u);
}

TEST(Cache, MissThenHit)
{
    Cache cache(smallConfig());
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    std::uint8_t line[64] = {};
    line[5] = 0xaa;
    cache.fill(0x1000, line);
    const auto hit = cache.access(0x1000, false);
    ASSERT_TRUE(hit.hit);
    std::uint8_t byte = 0;
    cache.readLine(hit.line, 5, 1, &byte);
    EXPECT_EQ(byte, 0xaa);
    EXPECT_EQ(cache.counters().get(CacheStat::ReadMisses), 1u);
    EXPECT_EQ(cache.counters().get(CacheStat::ReadHits), 1u);
    EXPECT_EQ(cache.counters().get(CacheStat::ReadAccesses), 2u);
    EXPECT_EQ(cache.counters().get(CacheStat::Fills), 1u);
}

TEST(Cache, SameSetDifferentTagsMiss)
{
    Cache cache(smallConfig());
    std::uint8_t line[64] = {};
    cache.fill(0x1000, line);
    // Same set (16 sets x 64B = 1KB stride), different tag.
    EXPECT_FALSE(cache.access(0x1000 + 16 * 64, false).hit);
}

TEST(Cache, LruEviction)
{
    Cache cache(smallConfig());
    std::uint8_t line[64] = {};
    const std::uint32_t stride = 16 * 64; // same-set stride
    cache.fill(0x0000, line);
    cache.fill(0x0000 + stride, line);
    // Touch the first line so the second becomes LRU.
    (void)cache.access(0x0000, false);
    const auto evicted = cache.fill(0x0000 + 2 * stride, line);
    EXPECT_TRUE(evicted.valid);
    EXPECT_EQ(evicted.addr, 0x0000u + stride);
    EXPECT_FALSE(evicted.dirty);
    EXPECT_EQ(cache.counters().get(CacheStat::Replacements), 1u);
}

TEST(Cache, DirtyEvictionCarriesData)
{
    Cache cache(smallConfig());
    std::uint8_t line[64] = {};
    const std::uint32_t stride = 16 * 64;
    cache.fill(0x2000, line);
    const auto hit = cache.access(0x2000, true);
    std::uint8_t dirty_byte = 0x77;
    cache.writeLine(hit.line, 3, 1, &dirty_byte);
    cache.fill(0x2000 + stride, line);
    const auto evicted = cache.fill(0x2000 + 2 * stride, line);
    ASSERT_TRUE(evicted.valid);
    ASSERT_TRUE(evicted.dirty);
    ASSERT_EQ(evicted.bytes.size(), 64u);
    EXPECT_EQ(evicted.bytes[3], 0x77);
    EXPECT_EQ(cache.counters().get(CacheStat::Writebacks), 1u);
}

TEST(Cache, TagFaultMakesLineUnreachable)
{
    Cache cache(smallConfig());
    std::uint8_t line[64] = {};
    cache.fill(0x3000, line);
    const auto before = cache.access(0x3000, false);
    ASSERT_TRUE(before.hit);
    cache.tagArray().flipBit(before.line, 0);
    EXPECT_FALSE(cache.access(0x3000, false).hit);
}

TEST(Cache, TagFaultCorruptsWritebackAddress)
{
    Cache cache(smallConfig());
    std::uint8_t line[64] = {};
    const std::uint32_t stride = 16 * 64;
    cache.fill(0x4000, line);
    const auto hit = cache.access(0x4000, true);
    std::uint8_t b = 1;
    cache.writeLine(hit.line, 0, 1, &b);
    // Flip a tag bit: the dirty victim's reconstructed address moves.
    cache.tagArray().flipBit(hit.line, 2);
    cache.fill(0x4000 + stride, line);
    const auto evicted = cache.fill(0x4000 + 2 * stride, line);
    ASSERT_TRUE(evicted.valid);
    EXPECT_NE(evicted.addr, 0x4000u);
}

TEST(Cache, ValidBitFaultDropsLine)
{
    Cache cache(smallConfig());
    std::uint8_t line[64] = {};
    cache.fill(0x5000, line);
    const auto hit = cache.access(0x5000, false);
    cache.validArray().forceBit(hit.line, 0, false);
    EXPECT_FALSE(cache.access(0x5000, false).hit);
    EXPECT_FALSE(cache.lineValid(hit.line));
}

TEST(Cache, DataFaultVisibleOnRead)
{
    Cache cache(smallConfig());
    std::uint8_t line[64] = {};
    cache.fill(0x6000, line);
    const auto hit = cache.access(0x6000, false);
    cache.dataArray().flipBit(hit.line, 8 * 10 + 3); // byte 10, bit 3
    std::uint8_t byte = 0;
    cache.readLine(hit.line, 10, 1, &byte);
    EXPECT_EQ(byte, 1u << 3);
}

TEST(Cache, ProbeHasNoSideEffects)
{
    Cache cache(smallConfig());
    std::uint8_t line[64] = {};
    EXPECT_FALSE(cache.access(0x7000, false).hit);
    cache.fill(0x7000, line);
    const auto hit = cache.access(0x7000, false);
    ASSERT_TRUE(hit.hit);
    // Every counter the probes could move is nonzero beforehand.
    ASSERT_EQ(cache.counters().get(CacheStat::ReadMisses), 1u);
    ASSERT_EQ(cache.counters().get(CacheStat::ReadHits), 1u);
    const std::string before = cache.stats().dump();
    cache.validArray().armWatch(hit.line, 0);

    EXPECT_TRUE(cache.probe(0x7000));
    EXPECT_FALSE(cache.probe(0x8000));

    EXPECT_EQ(cache.stats().dump(), before);
    // No watch-visible array read either.
    EXPECT_EQ(cache.validArray().watchState(), WatchState::Armed);
}

TEST(Cache, FillPrefersInvalidWays)
{
    Cache cache(smallConfig());
    std::uint8_t line[64] = {};
    const std::uint32_t stride = 16 * 64;
    const auto first = cache.fill(0x1000, line);
    const auto second = cache.fill(0x1000 + stride, line);
    EXPECT_FALSE(first.valid);
    EXPECT_FALSE(second.valid); // went to the empty way
    EXPECT_EQ(cache.counters().get(CacheStat::Fills), 2u);
    EXPECT_EQ(cache.counters().get(CacheStat::Replacements), 0u);
    // With both ways taken, the next fill of the set does replace.
    EXPECT_TRUE(cache.fill(0x1000 + 2 * stride, line).valid);
    EXPECT_EQ(cache.counters().get(CacheStat::Replacements), 1u);
}

TEST(Cache, StatsNameNonzeroCountersUnderTheCacheName)
{
    Cache cache(smallConfig());
    std::uint8_t line[64] = {};
    EXPECT_TRUE(cache.stats().all().empty());

    (void)cache.access(0x1000, true);
    cache.fill(0x1000, line);
    EXPECT_EQ(cache.stats().dump(), "c.fills = 1\n"
                                    "c.write_accesses = 1\n"
                                    "c.write_misses = 1\n");
}

} // namespace
