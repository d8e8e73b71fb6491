/**
 * @file
 * Shared driver for the figure-regeneration benches (Figs. 2-6).
 *
 * Each figure bench names the component under study; this driver runs
 * the full differential campaign — every benchmark on the three
 * setups (MaFIN-x86, GeFIN-x86, GeFIN-ARM) — classifies the logs and
 * renders the paper-style stacked-bar report.
 *
 * Environment knobs:
 *   DFI_INJECTIONS   runs per benchmark/setup cell (default 150;
 *                    the paper used 2000)
 *   DFI_BENCHMARKS   comma-separated subset of benchmark names
 *   DFI_SEED         campaign seed (default 0x5eed)
 *   DFI_JOBS         threads the figure's cells and each cell's
 *                    runs spread over (default 0 = hardware
 *                    concurrency, also the most used; any value
 *                    reproduces the same figures bit-for-bit)
 *   DFI_NO_PRUNE     1 simulates every run instead of pruning
 *                    (scripts/check_figures.sh proves both print the
 *                    same figures)
 *   DFI_TELEMETRY_DIR  directory for the JSON twins of the text
 *                    output (default "results"; empty disables)
 */

#ifndef DFI_BENCH_FIGURE_COMMON_HH
#define DFI_BENCH_FIGURE_COMMON_HH

#include <string>

#include "common/json.hh"
#include "inject/report.hh"

namespace dfi::bench
{

/** Setup display names, in the paper's bar order. */
inline const std::vector<std::string> &
setupNames()
{
    static const std::vector<std::string> names = {"M-x86", "G-x86",
                                                   "G-ARM"};
    return names;
}

/**
 * Run the full differential campaign for one component: every cell
 * as one batch of the process's task pool, added to the report in
 * cell order.
 */
inject::FigureReport runFigure(const std::string &figure_title,
                               const std::string &component);

/**
 * Render table + bars + summary to stdout and write the figure's
 * data as JSON next to the text output (writeBenchJson(slug)).
 */
void printFigure(const inject::FigureReport &report,
                 const std::string &slug);

/**
 * Write one bench's machine-readable data to
 * `$DFI_TELEMETRY_DIR/<slug>.json` (default directory "results",
 * created on demand; DFI_TELEMETRY_DIR= disables).  Every figure and
 * table bench calls this with the same slug as its committed text
 * transcript, so each `results/<slug>.txt` gains a JSON twin.
 */
void writeBenchJson(const std::string &slug, const json::Value &doc);

} // namespace dfi::bench

#endif // DFI_BENCH_FIGURE_COMMON_HH
