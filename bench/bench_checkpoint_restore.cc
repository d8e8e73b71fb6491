/**
 * @file
 * Measures the checkpoint fast path: restoring a run from a COW
 * snapshot costs O(state the run touches), not O(core size).
 *
 * For each cache scale the bench prepares a campaign and builds the
 * checkpoint store its faulty runs restore from
 * (PreparedCampaign::refined(), a replay of the golden run), then
 * times
 *   - copy-only restores (clone a worker core off a snapshot), and
 *   - restore + K ticks (the pages a short run actually dirties),
 * against the conservative per-snapshot state bound.  The copy-only
 * restore stays in the microseconds while the state bound sits in
 * the MiB — the copy is a page-table clone, and only the pages a
 * run writes ever materialise, so the gap between the two timed
 * columns is the simulation itself plus its dirtied pages.
 *
 * Environment knobs:
 *   DFI_RESTORE_REPS  timed restores per cell (default 50)
 *   DFI_RESTORE_TICKS ticks after restore in the touch case
 *                     (default 200)
 */

#include <chrono>
#include <cstdio>
#include <memory>

#include "common/config.hh"
#include "common/stats.hh"
#include "figure_common.hh"
#include "inject/campaign.hh"
#include "uarch/ooo_core.hh"

using namespace dfi;
using namespace dfi::inject;

namespace
{

double
micros(std::chrono::steady_clock::duration elapsed)
{
    return std::chrono::duration<double, std::micro>(elapsed).count();
}

} // namespace

int
main()
{
    const std::uint64_t reps = envUint("DFI_RESTORE_REPS", 50);
    const std::uint64_t ticks = envUint("DFI_RESTORE_TICKS", 200);
    const double scales[] = {0.0625, 0.25, 1.0};

    TextTable table;
    table.header({"cache scale", "state bound", "snapshots",
                  "restore", "restore+tick"});
    json::Value rows = json::Value::array();

    for (const double scale : scales) {
        CampaignConfig cfg;
        cfg.coreName = "marss-x86";
        cfg.benchmark = "micro";
        cfg.component = "l1d";
        cfg.cacheScale = scale;
        InjectionCampaign campaign(cfg);
        const std::shared_ptr<const CheckpointStore> refined =
            campaign.prepared()->refined();
        const CheckpointStore &store = *refined;
        const std::uint64_t mid_cycle =
            store.cycles().back() / 2 + 1;

        // Copy-only restore: clone a core off the snapshot nearest
        // the middle of the run; the single readBit defeats
        // dead-copy elimination without touching a page.
        std::uint64_t sink = 0;
        auto started = std::chrono::steady_clock::now();
        for (std::uint64_t r = 0; r < reps; ++r) {
            const uarch::OooCore core = store.sourceFor(mid_cycle);
            sink += core.cycle();
        }
        const double copy_us =
            micros(std::chrono::steady_clock::now() - started) /
            static_cast<double>(reps);

        // Restore + a short run: pays for the pages those ticks
        // dirty on top of the page-table clone.
        started = std::chrono::steady_clock::now();
        for (std::uint64_t r = 0; r < reps; ++r) {
            uarch::OooCore core = store.sourceFor(mid_cycle);
            for (std::uint64_t t = 0; t < ticks; ++t) {
                if (!core.tick())
                    break;
            }
            sink += core.cycle();
        }
        const double touch_us =
            micros(std::chrono::steady_clock::now() - started) /
            static_cast<double>(reps);

        const double state_mb =
            static_cast<double>(store.snapshotBoundBytes()) /
            (1024.0 * 1024.0);
        table.row({formatFixed(scale, 4),
                   formatFixed(state_mb, 2) + " MiB",
                   std::to_string(store.count()),
                   formatFixed(copy_us, 1) + " us",
                   formatFixed(touch_us, 1) + " us"});

        json::Value row = json::Value::object();
        row.set("cache_scale", json::Value::number(scale));
        row.set("state_bound_bytes",
                json::Value::unsignedInt(store.snapshotBoundBytes()));
        row.set("snapshots",
                json::Value::unsignedInt(store.count()));
        row.set("restore_us", json::Value::number(copy_us));
        row.set("restore_touch_us", json::Value::number(touch_us));
        rows.push(std::move(row));
        if (sink == 0)
            std::fprintf(stderr, "(unreachable sink)\n");
    }

    std::printf("Checkpoint restore cost vs core state (COW fast "
                "path)\n\n%s\n",
                table.render().c_str());
    std::printf("restore cost tracks touched state: copy-only "
                "restores clone page tables in microseconds while "
                "the per-snapshot state bound sits in the MiB; the "
                "restore+tick gap is the simulation plus only the "
                "pages it dirties\n");

    json::Value doc = json::Value::object();
    doc.set("reps", json::Value::unsignedInt(reps));
    doc.set("ticks", json::Value::unsignedInt(ticks));
    doc.set("cells", std::move(rows));
    bench::writeBenchJson("bench_checkpoint_restore", std::move(doc));
    return 0;
}
