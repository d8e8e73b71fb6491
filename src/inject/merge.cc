#include "inject/merge.hh"

#include <algorithm>

#include "inject/telemetry.hh"

namespace dfi::inject
{

bool
mergeTelemetryStreams(const std::vector<std::string> &paths,
                      MergeResult &out, std::string &error)
{
    out = MergeResult{};
    if (paths.empty()) {
        error = "no shard streams to merge";
        return false;
    }

    std::string header_dump;
    std::string header_path;
    std::uint64_t runs_total = 0;
    std::vector<TelemetryRecord> records;
    for (const std::string &path : paths) {
        TelemetryFile file;
        if (!readTelemetryFile(path, file, error))
            return false;
        if (file.kind != kTelemetryRunsKind) {
            error = path + ": not a run stream (kind '" + file.kind +
                    "')";
            return false;
        }
        if (!file.warning.empty())
            out.warnings.push_back(path + ": " + file.warning);
        // Shards of one campaign carry the *same* header bytes (the
        // config echo excludes the shard spec), so dump-string
        // equality is the whole compatibility check: schema, config,
        // golden reference and runs_total in one comparison.
        const std::string dump = file.header.dump();
        if (header_dump.empty()) {
            header_dump = dump;
            header_path = path;
            const json::Value *total = file.header.find("runs_total");
            if (total == nullptr ||
                total->kind() != json::Kind::Int ||
                total->isNegative()) {
                error = path + ": header has no 'runs_total' (stream "
                               "predates sharding; re-run the "
                               "campaign to merge)";
                return false;
            }
            runs_total = total->asUint();
        } else if (dump != header_dump) {
            error = path + ": header differs from " + header_path +
                    " (shards of different campaigns?)";
            return false;
        }
        for (TelemetryRecord &record : file.records)
            records.push_back(std::move(record));
    }

    std::sort(records.begin(), records.end(),
              [](const TelemetryRecord &a, const TelemetryRecord &b) {
                  return a.runId < b.runId;
              });
    // Full-plan runIds are 0..runs_total-1, so sorted coverage means
    // records[i].runId == i; anything else is a duplicate or a gap.
    if (records.size() != runs_total) {
        error = "merged record count " +
                std::to_string(records.size()) + " != runs_total " +
                std::to_string(runs_total) +
                (records.size() < runs_total ? " (missing shard?)"
                                             : " (overlapping "
                                               "shards?)");
        return false;
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].runId == i)
            continue;
        if (i > 0 && records[i].runId == records[i - 1].runId)
            error = "duplicate record for run " +
                    std::to_string(records[i].runId) +
                    " (overlapping shards?)";
        else
            error = "missing record for run " + std::to_string(i) +
                    " (incomplete shard set?)";
        return false;
    }

    json::Value header;
    if (!json::parse(header_dump, header, error))
        return false; // unreachable: dump of a parsed value
    const json::Value *config = header.find("config");
    const json::Value *golden = header.find("golden");
    const json::Value *golden_cycles =
        golden == nullptr ? nullptr : golden->find("cycles");
    if (config == nullptr || golden_cycles == nullptr ||
        golden_cycles->kind() != json::Kind::Int ||
        golden_cycles->isNegative()) {
        error = header_path + ": header missing config/golden echo";
        return false;
    }

    // Pruning tallies are campaign-wide and identical across shard
    // headers; pre-v3 streams have no "prune" member, in which case
    // the summary omits the object too.
    PruneStats prune_stats;
    bool have_prune = false;
    if (const json::Value *prune = header.find("prune");
        prune != nullptr) {
        const auto uintField = [](const json::Value *v) {
            return v != nullptr && v->kind() == json::Kind::Int &&
                   !v->isNegative();
        };
        const json::Value *stat = prune->find("pruned_static");
        const json::Value *equiv = prune->find("pruned_equiv");
        const json::Value *sim = prune->find("simulated");
        if (!uintField(stat) || !uintField(equiv) ||
            !uintField(sim)) {
            error = header_path + ": malformed 'prune' header echo";
            return false;
        }
        prune_stats.prunedStatic = stat->asUint();
        prune_stats.prunedEquiv = equiv->asUint();
        prune_stats.simulated = sim->asUint();
        have_prune = true;
    }

    SummaryAccumulator acc(golden_cycles->asUint());
    out.runsJsonl = header_dump;
    out.runsJsonl += '\n';
    for (const TelemetryRecord &record : records) {
        // Pre-check the outcome name: the accumulator fatal()s on an
        // unknown class, but shard streams are external input and
        // must report through `error` instead.
        OutcomeClass cls = OutcomeClass::Masked;
        if (!outcomeClassFromName(record.outcome, cls)) {
            error = "run " + std::to_string(record.runId) +
                    ": unknown outcome class '" + record.outcome +
                    "'";
            return false;
        }
        acc.add(record);
        out.runsJsonl += record.toJson().dump();
        out.runsJsonl += '\n';
    }
    out.summaryJson = acc.summaryJson(
        *config, *golden, 0, have_prune ? &prune_stats : nullptr);
    out.runs = records.size();
    return true;
}

} // namespace dfi::inject
