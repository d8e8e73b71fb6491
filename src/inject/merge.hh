/**
 * @file
 * Shard-stream merge: recombines the per-shard JSONL run streams of
 * one campaign (`dfi-campaign --shard I/N`) into artifacts
 * byte-identical to the unsharded run.
 *
 * This is what makes sharding safe to use: the merge *proves* the
 * shards belong together (identical headers — same schema, config
 * echo, golden reference and `runs_total`), proves coverage (every
 * runId in 0..runs_total-1 exactly once, no duplicates), and then
 * reuses the writer's own serialisation paths — the parsed header
 * re-dumps byte-identically (common/json round-trip guarantee), the
 * records re-serialise through TelemetryRecord::toJson(), and the
 * summary is recomputed from the merged records through the shared
 * SummaryAccumulator.  Nothing is "patched together": a merged
 * artifact either equals the serial artifact byte-for-byte or the
 * merge refuses.
 *
 * Merged summaries always echo the volatile `jobs` field as zero:
 * merging is a host-neutral operation, and zero is what a campaign
 * with timing capture off (the byte-comparable mode) writes anyway.
 */

#ifndef DFI_INJECT_MERGE_HH
#define DFI_INJECT_MERGE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace dfi::inject
{

/** Output of a successful shard merge. */
struct MergeResult
{
    /** Merged JSONL run stream (header + records in runId order). */
    std::string runsJsonl;
    /** Summary recomputed from the merged records. */
    std::string summaryJson;
    /** Number of merged records (== the header's runs_total). */
    std::uint64_t runs = 0;
    /** Non-fatal reader diagnostics (e.g. torn tails dropped). */
    std::vector<std::string> warnings;
};

/**
 * Merge shard run streams into the unsharded artifacts.  Shard
 * streams are external inputs, so every defect — unreadable file,
 * wrong artifact kind, header mismatch across shards, duplicate or
 * missing runId — reports through `error` (return false) rather than
 * throwing.
 */
bool mergeTelemetryStreams(const std::vector<std::string> &paths,
                           MergeResult &out, std::string &error);

} // namespace dfi::inject

#endif // DFI_INJECT_MERGE_HH
