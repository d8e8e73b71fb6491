/**
 * @file
 * Reproduces the Section III.B speed claim: the two early-stop
 * optimizations — (i) stop when the fault lands in an invalid/unused
 * entry, (ii) stop when the faulted bit is overwritten before being
 * read — cut 30-70% of the per-run simulation cycles.
 *
 * Measured as simulated faulty cycles with the optimizations enabled
 * vs disabled, same masks, over several structure/benchmark cells.
 * Pruning is off: it would classify most early-stopped runs without
 * simulating them and credit its saving to the two rules.
 */

#include <cstdio>
#include <string>

#include "common/config.hh"
#include "common/stats.hh"
#include "inject/campaign.hh"

using namespace dfi;
using namespace dfi::inject;

int
main()
{
    const std::uint64_t injections = envUint("DFI_INJECTIONS", 80);

    struct Cell
    {
        const char *component;
        const char *benchmark;
        const char *core;
    };
    const Cell cells[] = {
        {"l1d", "sha", "marss-x86"},
        {"l1d", "fft", "gem5-x86"},
        {"int_regfile", "caes", "marss-x86"},
        {"l1i", "qsort", "gem5-x86"},
        {"l2", "fft", "gem5-arm"},
        {"lsq", "smooth", "marss-x86"},
    };

    TextTable table;
    table.header({"component", "benchmark", "core", "cycles (opt on)",
                  "cycles (opt off)", "saving"});

    double total_on = 0, total_off = 0;
    for (const Cell &cell : cells) {
        CampaignConfig cfg;
        cfg.component = cell.component;
        cfg.benchmark = cell.benchmark;
        cfg.coreName = cell.core;
        cfg.numInjections = injections;
        cfg.prune = false;

        InjectionCampaign fast(cfg);
        const auto on = fast.run();

        cfg.earlyStopInvalidEntry = false;
        cfg.earlyStopOverwrite = false;
        InjectionCampaign slow(cfg);
        const auto off = slow.run();

        const double saving =
            100.0 * (1.0 - static_cast<double>(on.simulatedFaultyCycles) /
                               static_cast<double>(
                                   off.simulatedFaultyCycles));
        total_on += static_cast<double>(on.simulatedFaultyCycles);
        total_off += static_cast<double>(off.simulatedFaultyCycles);
        table.row({cell.component, cell.benchmark, cell.core,
                   std::to_string(on.simulatedFaultyCycles),
                   std::to_string(off.simulatedFaultyCycles),
                   formatFixed(saving, 1) + "%"});
    }

    std::printf("Early-stop optimization speedup (Section III.B; "
                "paper claims 30-70%% per run)\n\n%s\n",
                table.render().c_str());
    std::printf("overall saving: %.1f%%\n",
                100.0 * (1.0 - total_on / total_off));
    return 0;
}
