/**
 * @file
 * google-benchmark microbenchmarks for the framework's own hot paths:
 * simulator cycle throughput per model and program, FaultableArray
 * access costs, and checkpoint copy cost.  These are engineering
 * benchmarks (not a paper figure) used to keep campaign runtimes in
 * check.
 */

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <utility>

#include "isa/codegen.hh"
#include "prog/benchmark.hh"
#include "storage/faultable_array.hh"
#include "uarch/core_config.hh"
#include "uarch/ooo_core.hh"

using namespace dfi;

namespace
{

/** A benchmark program, compiled once per ISA. */
const isa::Image &
programImage(const std::string &program, isa::IsaKind kind)
{
    static std::map<std::pair<std::string, isa::IsaKind>, isa::Image>
        images;
    const auto key = std::make_pair(program, kind);
    auto it = images.find(key);
    if (it == images.end()) {
        it = images
                 .emplace(key, ir::compileModule(
                                   prog::buildBenchmark(program).module,
                                   kind))
                 .first;
    }
    return it->second;
}

/**
 * Whole golden runs at the campaigns' default cache scale.  `micro`
 * keeps a shallow window (on gem5-x86, 8.5 IQ entries and 11 ROB
 * steps of the conservative-load check per active cycle); `sha`
 * holds 14.2 and walks 36, closer to what faulty runs spend their
 * cycles on.
 */
void
BM_CoreCycles(benchmark::State &state, uarch::CoreConfig cfg,
              const char *program)
{
    uarch::scaleCaches(cfg, 0.0625);
    const isa::Image &image = programImage(program, cfg.isa);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        uarch::OooCore core(cfg, image);
        while (core.tick()) {}
        cycles += core.cycle();
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void
BM_FaultableArrayRead(benchmark::State &state)
{
    FaultableArray array("bench", 512, 512);
    std::uint64_t sum = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        sum += array.readBits(i % 512, (i * 8) % 448, 32);
        ++i;
    }
    benchmark::DoNotOptimize(sum);
}

void
BM_FaultableArrayReadBytes(benchmark::State &state)
{
    FaultableArray array("bench", 512, 512);
    std::uint8_t line[64];
    std::size_t i = 0;
    for (auto _ : state) {
        array.readBytes(i % 512, 0, 64, line);
        benchmark::DoNotOptimize(line[0]);
        ++i;
    }
}

void
BM_CheckpointCopy(benchmark::State &state)
{
    auto cfg = uarch::marssX86Config();
    uarch::scaleCaches(cfg, 0.0625);
    uarch::OooCore core(cfg, programImage("micro", isa::IsaKind::X86));
    for (int i = 0; i < 500; ++i)
        core.tick();
    for (auto _ : state) {
        uarch::OooCore copy = core;
        benchmark::DoNotOptimize(copy.cycle());
    }
}

} // namespace

BENCHMARK_CAPTURE(BM_CoreCycles, marss_x86_micro, uarch::marssX86Config(),
                  "micro")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CoreCycles, gem5_x86_micro, uarch::gem5X86Config(),
                  "micro")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CoreCycles, gem5_arm_micro, uarch::gem5ArmConfig(),
                  "micro")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CoreCycles, marss_x86_sha, uarch::marssX86Config(),
                  "sha")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CoreCycles, gem5_x86_sha, uarch::gem5X86Config(),
                  "sha")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CoreCycles, gem5_arm_sha, uarch::gem5ArmConfig(),
                  "sha")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FaultableArrayRead);
BENCHMARK(BM_FaultableArrayReadBytes);
BENCHMARK(BM_CheckpointCopy)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
