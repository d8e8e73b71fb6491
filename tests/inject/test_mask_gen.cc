/**
 * @file
 * Tests for the Fault Mask Generator and the masks repository.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "inject/mask_gen.hh"
#include "inject/target.hh"
#include "isa/codegen.hh"
#include "prog/benchmark.hh"
#include "uarch/core_config.hh"

namespace
{

using namespace dfi;
using namespace dfi::inject;

class MaskGenTest : public ::testing::Test
{
  protected:
    MaskGenTest()
    {
        const auto bench = prog::buildBenchmark("micro");
        image_ = ir::compileModule(bench.module, isa::IsaKind::X86);
        core_ = std::make_unique<uarch::OooCore>(
            uarch::marssX86Config(), image_);
    }

    isa::Image image_;
    std::unique_ptr<uarch::OooCore> core_;
};

TEST_F(MaskGenTest, GeneratesRequestedCount)
{
    MaskGenConfig cfg;
    cfg.component = "l1d";
    cfg.numRuns = 500;
    cfg.maxCycle = 10000;
    const auto masks = generateMasks(cfg, *core_);
    ASSERT_EQ(masks.size(), 500u);
    for (std::size_t i = 0; i < masks.size(); ++i) {
        EXPECT_EQ(masks[i].runId, i);
        EXPECT_EQ(masks[i].structure, StructureId::L1DData);
        EXPECT_GE(masks[i].cycle, 1u);
        EXPECT_LE(masks[i].cycle, 10000u);
    }
}

TEST_F(MaskGenTest, LocationsInBounds)
{
    MaskGenConfig cfg;
    cfg.component = "l1d";
    cfg.numRuns = 2000;
    cfg.maxCycle = 1000;
    const auto masks = generateMasks(cfg, *core_);
    auto *array = core_->arrayFor(StructureId::L1DData);
    for (const auto &mask : masks) {
        EXPECT_LT(mask.entry, array->numEntries());
        EXPECT_LT(mask.bit, array->bitsPerEntry());
    }
}

TEST_F(MaskGenTest, DeterministicForSeed)
{
    MaskGenConfig cfg;
    cfg.component = "int_regfile";
    cfg.numRuns = 100;
    cfg.maxCycle = 5000;
    cfg.seed = 42;
    const auto a = generateMasks(cfg, *core_);
    const auto b = generateMasks(cfg, *core_);
    EXPECT_EQ(a, b);
    cfg.seed = 43;
    const auto c = generateMasks(cfg, *core_);
    EXPECT_NE(a, c);
}

TEST_F(MaskGenTest, LsqResolvesToUnifiedQueueOnMarss)
{
    MaskGenConfig cfg;
    cfg.component = "lsq";
    cfg.numRuns = 200;
    cfg.maxCycle = 1000;
    const auto masks = generateMasks(cfg, *core_);
    for (const auto &mask : masks)
        EXPECT_EQ(mask.structure, StructureId::LoadStoreQueue);
}

TEST_F(MaskGenTest, LsqResolvesToSplitQueuesOnGem5)
{
    const auto bench = prog::buildBenchmark("micro");
    const auto image =
        ir::compileModule(bench.module, isa::IsaKind::X86);
    uarch::OooCore gem5(uarch::gem5X86Config(), image);

    MaskGenConfig cfg;
    cfg.component = "lsq";
    cfg.numRuns = 400;
    cfg.maxCycle = 1000;
    const auto masks = generateMasks(cfg, gem5);
    std::set<StructureId> seen;
    for (const auto &mask : masks)
        seen.insert(mask.structure);
    EXPECT_TRUE(seen.count(StructureId::LoadQueue));
    EXPECT_TRUE(seen.count(StructureId::StoreQueue));
    EXPECT_FALSE(seen.count(StructureId::LoadStoreQueue));
}

TEST_F(MaskGenTest, IntermittentAndPermanentFields)
{
    MaskGenConfig cfg;
    cfg.component = "int_regfile";
    cfg.numRuns = 50;
    cfg.maxCycle = 1000;
    cfg.type = FaultType::Intermittent;
    cfg.intermittentMin = 10;
    cfg.intermittentMax = 20;
    for (const auto &mask : generateMasks(cfg, *core_)) {
        EXPECT_GE(mask.duration, 10u);
        EXPECT_LE(mask.duration, 20u);
    }
    cfg.type = FaultType::Permanent;
    for (const auto &mask : generateMasks(cfg, *core_)) {
        EXPECT_EQ(mask.cycle, 0u);
        EXPECT_EQ(mask.duration, 0u);
    }
}

TEST_F(MaskGenTest, MultiBitPopulations)
{
    MaskGenConfig cfg;
    cfg.component = "l1d";
    cfg.numRuns = 50;
    cfg.maxCycle = 1000;

    cfg.population = Population::DoubleAdjacent;
    auto masks = generateMasks(cfg, *core_);
    ASSERT_EQ(masks.size(), 100u);
    for (std::size_t i = 0; i < masks.size(); i += 2) {
        EXPECT_EQ(masks[i].runId, masks[i + 1].runId);
        EXPECT_EQ(masks[i].entry, masks[i + 1].entry);
    }

    cfg.population = Population::MultiStructure;
    masks = generateMasks(cfg, *core_);
    EXPECT_EQ(masks.size(), 100u);
}

TEST_F(MaskGenTest, RepositoryRoundTrip)
{
    MaskGenConfig cfg;
    cfg.component = "l1i";
    cfg.numRuns = 64;
    cfg.maxCycle = 1000;
    const auto masks = generateMasks(cfg, *core_);

    const std::string path = "/tmp/dfi_masks_test.txt";
    saveMasks(path, masks);
    const auto loaded = loadMasks(path);
    EXPECT_EQ(masks, loaded);
    std::remove(path.c_str());
}

TEST_F(MaskGenTest, UniformCoverageAcrossEntries)
{
    MaskGenConfig cfg;
    cfg.component = "int_regfile";
    cfg.numRuns = 8000;
    cfg.maxCycle = 1000;
    const auto masks = generateMasks(cfg, *core_);
    // 256 entries: each should get roughly 8000/256 = 31 hits.
    std::vector<int> hits(256, 0);
    for (const auto &mask : masks)
        ++hits[mask.entry];
    for (int h : hits) {
        EXPECT_GT(h, 5);
        EXPECT_LT(h, 90);
    }
}

TEST_F(MaskGenTest, ComponentBitsMatchesGeometry)
{
    // int RF: 256 x 32 bits.
    EXPECT_EQ(componentBits("int_regfile", *core_), 256u * 32u);
    // unified LSQ on marss: 32 x 32.
    EXPECT_EQ(componentBits("lsq", *core_), 32u * 32u);
}

TEST(Population, NamesRoundTrip)
{
    for (const Population population :
         {Population::SingleBit, Population::DoubleAdjacent,
          Population::DoubleRandom, Population::MultiStructure}) {
        Population decoded = population == Population::SingleBit
                                 ? Population::MultiStructure
                                 : Population::SingleBit;
        EXPECT_TRUE(
            populationFromName(populationName(population), decoded));
        EXPECT_EQ(decoded, population);
    }
    for (const char *bad : {"", "Single", "double", "multi_structure"}) {
        Population out = Population::DoubleRandom;
        EXPECT_FALSE(populationFromName(bad, out)) << bad;
        EXPECT_EQ(out, Population::DoubleRandom) << bad;
    }
}

} // namespace
