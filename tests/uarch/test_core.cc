/**
 * @file
 * Integration tests for the out-of-order cores: architectural
 * equivalence with the functional interpreter, Table II policy
 * differences, checkpoint copyability, fault behaviour through the
 * injection interface, and robustness under random corruption.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "isa/codegen.hh"
#include "isa/interp.hh"
#include "prog/benchmark.hh"
#include "uarch/core_config.hh"
#include "uarch/ooo_core.hh"

namespace
{

using namespace dfi;
using namespace dfi::uarch;

syskit::RunRecord
runToEnd(OooCore &core, std::uint64_t limit = 30'000'000)
{
    while (core.tick()) {
        if (core.cycle() > limit)
            break;
    }
    if (!core.finished())
        core.forceTimeout();
    return core.record();
}

class CoreVsInterp
    : public ::testing::TestWithParam<std::tuple<std::string,
                                                 std::string>>
{
};

TEST_P(CoreVsInterp, ArchitecturallyEquivalent)
{
    const auto &[bench_name, core_name] = GetParam();
    const auto bench = prog::buildBenchmark(bench_name);
    CoreConfig cfg = coreConfigByName(core_name);
    scaleCaches(cfg, 0.0625);
    const auto image = ir::compileModule(bench.module, cfg.isa);

    isa::Interpreter interp(image);
    const auto ref = interp.run();

    OooCore core(cfg, image);
    const auto record = runToEnd(core);

    ASSERT_EQ(record.term, syskit::Termination::Exited)
        << record.detail;
    EXPECT_EQ(record.output, ref.output);
    EXPECT_EQ(record.exitCode, ref.exitCode);
    EXPECT_EQ(record.instructions, ref.instructions);
}

INSTANTIATE_TEST_SUITE_P(
    Sampled, CoreVsInterp,
    ::testing::Values(
        std::tuple{"micro", "marss-x86"},
        std::tuple{"micro", "gem5-x86"},
        std::tuple{"micro", "gem5-arm"},
        std::tuple{"sha", "marss-x86"},
        std::tuple{"fft", "gem5-arm"},
        std::tuple{"qsort", "gem5-x86"}),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               [](std::string s) {
                   for (auto &ch : s)
                       if (ch == '-')
                           ch = '_';
                   return s;
               }(std::get<1>(info.param));
    });

/** Counts the liveness reports a core sends it. */
struct CountingSink final : LivenessSink
{
    std::uint64_t reports = 0;

    void
    onLivenessChange(dfi::StructureId, std::uint32_t) override
    {
        ++reports;
    }
};

/**
 * A checkpoint copy continues exactly as its source does, and leaves
 * the source's liveness sink behind: only the traced core reports.
 */
TEST(Core, CheckpointCopyContinuesIdentically)
{
    const auto bench = prog::buildBenchmark("micro");
    CoreConfig cfg = gem5X86Config();
    scaleCaches(cfg, 0.0625);
    const auto image = ir::compileModule(bench.module, cfg.isa);

    OooCore original(cfg, image);
    CountingSink sink;
    original.setLivenessSink(&sink);
    for (int i = 0; i < 700; ++i)
        original.tick();
    OooCore copy = original; // checkpoint
    const std::uint64_t before_copy_ran = sink.reports;
    ASSERT_GT(before_copy_ran, 0u);

    const auto b = runToEnd(copy);
    EXPECT_EQ(sink.reports, before_copy_ran);
    const auto a = runToEnd(original);
    EXPECT_GT(sink.reports, before_copy_ran);
    EXPECT_EQ(a.term, b.term);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.output, b.output);
}

TEST(Core, MarssIssuesMoreLoadsThanGem5)
{
    // Remark 3: aggressive load issue + replays means issued loads
    // exceed committed loads on the MARSS model.
    const auto bench = prog::buildBenchmark("qsort");
    CoreConfig marss = marssX86Config();
    CoreConfig gem5 = gem5X86Config();
    scaleCaches(marss, 0.0625);
    scaleCaches(gem5, 0.0625);
    const auto image = ir::compileModule(bench.module,
                                         isa::IsaKind::X86);

    OooCore m(marss, image), g(gem5, image);
    runToEnd(m);
    runToEnd(g);

    const double m_ratio =
        m.stats().ratio("issued_loads", "committed_loads");
    const double g_ratio =
        g.stats().ratio("issued_loads", "committed_loads");
    EXPECT_GT(m_ratio, g_ratio);
    EXPECT_GE(g_ratio, 0.99);
}

TEST(Core, ArrayResolverCoversStructures)
{
    const auto bench = prog::buildBenchmark("micro");
    const auto image =
        ir::compileModule(bench.module, isa::IsaKind::X86);
    OooCore marss(marssX86Config(), image);
    OooCore gem5(gem5X86Config(), image);

    // Unified vs split queues (Remark 1 plumbing).
    EXPECT_NE(marss.arrayFor(StructureId::LoadStoreQueue), nullptr);
    EXPECT_EQ(marss.arrayFor(StructureId::LoadQueue), nullptr);
    EXPECT_EQ(gem5.arrayFor(StructureId::LoadStoreQueue), nullptr);
    EXPECT_NE(gem5.arrayFor(StructureId::StoreQueue), nullptr);
    // MaFIN-only prefetchers.
    EXPECT_NE(marss.arrayFor(StructureId::PrefetchL1D), nullptr);
    EXPECT_EQ(gem5.arrayFor(StructureId::PrefetchL1D), nullptr);
    // Split vs unified BTB.
    EXPECT_NE(marss.arrayFor(StructureId::BtbIndirect), nullptr);
    EXPECT_EQ(gem5.arrayFor(StructureId::BtbIndirect), nullptr);
}

TEST(Core, EntryLiveTracksRegisterAllocation)
{
    const auto bench = prog::buildBenchmark("micro");
    const auto image =
        ir::compileModule(bench.module, isa::IsaKind::X86);
    OooCore core(marssX86Config(), image);
    // Architectural registers are mapped from reset.
    EXPECT_TRUE(core.entryLive(StructureId::IntRegFile, 0));
    // The last physical register starts free.
    EXPECT_FALSE(core.entryLive(StructureId::IntRegFile, 255));
    // FP registers never allocate on integer workloads.
    EXPECT_FALSE(core.entryLive(StructureId::FpRegFile, 0));
}

TEST(Core, SurvivesRandomRegisterFileCorruption)
{
    // Property: arbitrary corruption of the physical register file
    // must never escape the outcome taxonomy (no host crash, no
    // hang).
    Rng rng(777);
    const auto bench = prog::buildBenchmark("micro");
    for (const char *name : {"marss-x86", "gem5-x86"}) {
        CoreConfig cfg = coreConfigByName(name);
        scaleCaches(cfg, 0.0625);
        const auto image = ir::compileModule(bench.module, cfg.isa);
        for (int trial = 0; trial < 12; ++trial) {
            OooCore core(cfg, image);
            const std::uint64_t inject_at = 50 + rng.nextBounded(2000);
            while (core.tick() && core.cycle() < inject_at) {}
            auto *rf = core.arrayFor(StructureId::IntRegFile);
            for (int f = 0; f < 8; ++f) {
                rf->flipBit(rng.nextBounded(rf->numEntries()),
                            rng.nextBounded(rf->bitsPerEntry()));
            }
            const auto record = runToEnd(core, 200'000);
            (void)record; // any taxonomy outcome is acceptable
        }
    }
}

TEST(Core, SurvivesRandomIqCorruption)
{
    Rng rng(778);
    const auto bench = prog::buildBenchmark("micro");
    CoreConfig cfg = marssX86Config();
    scaleCaches(cfg, 0.0625);
    const auto image = ir::compileModule(bench.module, cfg.isa);
    int asserts = 0;
    for (int trial = 0; trial < 20; ++trial) {
        OooCore core(cfg, image);
        const std::uint64_t inject_at = 100 + rng.nextBounded(2000);
        while (core.tick() && core.cycle() < inject_at) {}
        auto *iq = core.arrayFor(StructureId::IssueQueue);
        for (int f = 0; f < 4; ++f) {
            iq->flipBit(rng.nextBounded(iq->numEntries()),
                        rng.nextBounded(iq->bitsPerEntry()));
        }
        const auto record = runToEnd(core, 200'000);
        asserts +=
            record.term == syskit::Termination::SimAssert ? 1 : 0;
    }
    // The dense-assert MARSS model should convert at least some IQ
    // corruption into Assert outcomes.
    EXPECT_GT(asserts, 0);
}

TEST(Core, L1IDataFaultCanChangeOutcome)
{
    const auto bench = prog::buildBenchmark("micro");
    CoreConfig cfg = gem5X86Config();
    scaleCaches(cfg, 0.0625);
    const auto image = ir::compileModule(bench.module, cfg.isa);

    int non_masked = 0;
    Rng rng(779);
    for (int trial = 0; trial < 25; ++trial) {
        OooCore core(cfg, image);
        while (core.tick() && core.cycle() < 200) {}
        auto *l1i = core.arrayFor(StructureId::L1IData);
        // Flip bits only in valid lines to hit live instructions.
        for (int tries = 0; tries < 200; ++tries) {
            const auto entry = rng.nextBounded(l1i->numEntries());
            if (core.entryLive(StructureId::L1IData,
                               static_cast<std::uint32_t>(entry))) {
                l1i->flipBit(entry,
                             rng.nextBounded(l1i->bitsPerEntry()));
                break;
            }
        }
        const auto record = runToEnd(core, 200'000);
        const auto bench_ref = prog::buildBenchmark("micro");
        if (record.term != syskit::Termination::Exited ||
            record.output != bench_ref.expectedOutput) {
            ++non_masked;
        }
    }
    EXPECT_GT(non_masked, 0);
}

TEST(Core, MismatchedIsaIsFatal)
{
    const auto bench = prog::buildBenchmark("micro");
    const auto arm_image =
        ir::compileModule(bench.module, isa::IsaKind::Arm);
    EXPECT_THROW(OooCore(marssX86Config(), arm_image),
                 dfi::FatalError);
}

} // namespace
