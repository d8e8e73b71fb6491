/**
 * @file
 * The core's named statistics are a view built from counters owned by
 * the core, its caches, TLBs and BTBs.  These tests pin that view:
 * full runs must reproduce reference dumps, and a run resumed from a
 * mid-run copy must end with the same dump as an uninterrupted one.
 */

#include <gtest/gtest.h>

#include <string>

#include "isa/codegen.hh"
#include "prog/benchmark.hh"
#include "uarch/core_config.hh"
#include "uarch/ooo_core.hh"

namespace
{

using namespace dfi;
using namespace dfi::uarch;

struct ReferenceDump
{
    const char *benchmark;
    const char *core;
    const char *dump;
};

// OooCore::stats().dump() after a full run with caches scaled to
// 1/16, as recorded when the counters were still kept by name in one
// StatSet.  A changed line means a counter changed meaning.
const ReferenceDump kReferenceDumps[] = {
    {"micro", "marss-x86", R"(branch_mispredictions = 14
branches_predicted = 66
btb.hits = 53
btb.lookups = 53
committed_branches = 65
committed_instructions = 1557
committed_loads = 131
committed_stores = 67
cycles = 1372
dtlb.hits = 203
dtlb.misses = 2
fetched_instructions = 1747
issued_instructions = 1637
issued_loads = 157
issued_stores = 71
itlb.hits = 1746
itlb.misses = 1
l1d.fills = 8
l1d.prefetches = 4
l1d.read_accesses = 141
l1d.read_hits = 138
l1d.read_misses = 3
l1d.write_accesses = 67
l1d.write_hits = 66
l1d.write_misses = 1
l1i.fills = 4
l1i.prefetches = 2
l1i.read_accesses = 1896
l1i.read_hits = 1894
l1i.read_misses = 2
l2.fills = 12
l2.read_accesses = 24
l2.read_hits = 12
l2.read_misses = 12
memory_order_violations = 2
pipeline_flushes = 17
renamed_instructions = 1733
syscalls = 2
)"},
    {"micro", "gem5-x86", R"(branch_mispredictions = 15
branches_predicted = 66
btb.hits = 52
btb.lookups = 52
committed_branches = 65
committed_instructions = 1557
committed_loads = 131
committed_stores = 67
cycles = 1463
dtlb.hits = 196
dtlb.misses = 2
fetched_instructions = 1741
issued_instructions = 1619
issued_loads = 132
issued_stores = 69
itlb.hits = 1740
itlb.misses = 1
l1d.fills = 6
l1d.read_accesses = 199
l1d.read_hits = 194
l1d.read_misses = 5
l1d.write_accesses = 67
l1d.write_hits = 66
l1d.write_misses = 1
l1i.fills = 27
l1i.read_accesses = 1961
l1i.read_hits = 1934
l1i.read_misses = 27
l2.fills = 33
l2.read_accesses = 66
l2.read_hits = 33
l2.read_misses = 33
pipeline_flushes = 16
renamed_instructions = 1728
store_to_load_forwards = 2
syscalls = 2
)"},
    {"micro", "gem5-arm", R"(branch_mispredictions = 15
branches_predicted = 67
btb.hits = 53
btb.lookups = 53
committed_branches = 65
committed_instructions = 1304
committed_loads = 131
committed_stores = 67
cycles = 1374
dtlb.hits = 199
dtlb.misses = 2
fetched_instructions = 1606
issued_instructions = 1397
issued_loads = 132
issued_stores = 77
itlb.hits = 1605
itlb.misses = 1
l1d.fills = 6
l1d.read_accesses = 200
l1d.read_hits = 195
l1d.read_misses = 5
l1d.write_accesses = 67
l1d.write_hits = 66
l1d.write_misses = 1
l1i.fills = 29
l1i.read_accesses = 1683
l1i.read_hits = 1654
l1i.read_misses = 29
l2.fills = 35
l2.read_accesses = 70
l2.read_hits = 35
l2.read_misses = 35
pipeline_flushes = 16
renamed_instructions = 1532
store_to_load_forwards = 2
syscalls = 2
)"},
    {"fft", "marss-x86", R"(branch_mispredictions = 259
branches_predicted = 2383
btb.hits = 1751
btb.lookups = 1751
committed_branches = 1808
committed_instructions = 102559
committed_loads = 23823
committed_stores = 15120
cycles = 120538
dtlb.hits = 52332
dtlb.misses = 3
fetched_instructions = 149306
issued_instructions = 133459
issued_loads = 38084
issued_stores = 17363
itlb.hits = 149305
itlb.misses = 1
kernel_ticks = 24
l1d.fills = 2400
l1d.prefetches = 983
l1d.read_accesses = 37869
l1d.read_hits = 36652
l1d.read_misses = 1217
l1d.replacements = 2368
l1d.write_accesses = 15120
l1d.write_hits = 14920
l1d.write_misses = 200
l1d.writebacks = 846
l1i.fills = 10
l1i.prefetches = 5
l1i.read_accesses = 169549
l1i.read_hits = 169544
l1i.read_misses = 5
l2.fills = 109
l2.read_accesses = 2519
l2.read_hits = 2410
l2.read_misses = 109
l2.write_accesses = 846
l2.write_hits = 846
memory_order_violations = 4544
pipeline_flushes = 4805
renamed_instructions = 147947
store_to_load_forwards = 394
syscalls = 3
)"},
    {"fft", "gem5-x86", R"(branch_mispredictions = 347
branches_predicted = 2614
btb.hits = 1946
btb.lookups = 1946
committed_branches = 1808
committed_instructions = 102559
committed_loads = 23823
committed_stores = 15120
cycles = 113611
dtlb.hits = 40099
dtlb.misses = 3
fetched_instructions = 115071
issued_instructions = 111022
issued_loads = 24739
issued_stores = 15382
itlb.hits = 115070
itlb.misses = 1
kernel_ticks = 22
l1d.fills = 1373
l1d.read_accesses = 21512
l1d.read_hits = 20390
l1d.read_misses = 1122
l1d.replacements = 1341
l1d.write_accesses = 15120
l1d.write_hits = 14869
l1d.write_misses = 251
l1d.writebacks = 758
l1i.fills = 48
l1i.read_accesses = 128177
l1i.read_hits = 128129
l1i.read_misses = 48
l1i.replacements = 16
l2.fills = 133
l2.read_accesses = 1554
l2.read_hits = 1421
l2.read_misses = 133
l2.replacements = 5
l2.write_accesses = 758
l2.write_hits = 758
pipeline_flushes = 349
renamed_instructions = 112140
store_to_load_forwards = 6662
syscalls = 3
)"},
    {"fft", "gem5-arm", R"(branch_mispredictions = 332
branches_predicted = 2164
btb.hits = 1260
btb.lookups = 1260
committed_branches = 1808
committed_instructions = 82834
committed_loads = 20235
committed_stores = 13835
cycles = 81387
dtlb.hits = 34082
dtlb.misses = 3
fetched_instructions = 86545
issued_instructions = 83393
issued_loads = 20249
issued_stores = 13839
itlb.hits = 86544
itlb.misses = 1
kernel_ticks = 16
l1d.fills = 1267
l1d.read_accesses = 17429
l1d.read_hits = 16433
l1d.read_misses = 996
l1d.replacements = 1235
l1d.write_accesses = 13835
l1d.write_hits = 13564
l1d.write_misses = 271
l1d.writebacks = 673
l1i.fills = 50
l1i.read_accesses = 87051
l1i.read_hits = 87001
l1i.read_misses = 50
l1i.replacements = 18
l2.fills = 135
l2.read_accesses = 1452
l2.read_hits = 1317
l2.read_misses = 135
l2.replacements = 7
l2.write_accesses = 673
l2.write_hits = 673
pipeline_flushes = 334
renamed_instructions = 83969
store_to_load_forwards = 6149
syscalls = 3
)"},
};

OooCore
makeCore(const std::string &benchmark, const std::string &core)
{
    CoreConfig cfg = coreConfigByName(core);
    scaleCaches(cfg, 0.0625);
    const auto bench = prog::buildBenchmark(benchmark);
    return OooCore(cfg, ir::compileModule(bench.module, cfg.isa));
}

TEST(CoreStats, FullRunDumpsMatchReference)
{
    for (const ReferenceDump &ref : kReferenceDumps) {
        SCOPED_TRACE(std::string(ref.benchmark) + " on " + ref.core);
        OooCore core = makeCore(ref.benchmark, ref.core);
        while (core.tick()) {}
        ASSERT_EQ(core.record().term, syskit::Termination::Exited);
        EXPECT_EQ(core.stats().dump(), ref.dump);
        EXPECT_EQ(core.record().stats.dump(), ref.dump);
    }
}

TEST(CoreStats, ResumedCopyEndsWithTheSameDump)
{
    for (const char *name : {"marss-x86", "gem5-x86", "gem5-arm"}) {
        SCOPED_TRACE(name);
        OooCore original = makeCore("micro", name);
        for (int i = 0; i < 700; ++i)
            ASSERT_TRUE(original.tick());

        // Mid-run: counters only, no end-of-run totals yet.
        const StatSet mid = original.stats();
        EXPECT_GT(mid.get("renamed_instructions"), 0u);
        EXPECT_GT(mid.get("l1i.read_accesses"), 0u);
        EXPECT_FALSE(mid.has("cycles"));
        EXPECT_FALSE(mid.has("committed_instructions"));

        OooCore resumed = original;
        EXPECT_EQ(resumed.stats().dump(), mid.dump());

        while (original.tick()) {}
        while (resumed.tick()) {}
        EXPECT_EQ(resumed.stats().dump(), original.stats().dump());
        EXPECT_EQ(resumed.record().stats.dump(),
                  original.record().stats.dump());
        EXPECT_EQ(resumed.stats().get("cycles"), original.cycle());
    }
}

} // namespace
