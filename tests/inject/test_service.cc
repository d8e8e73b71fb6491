/**
 * @file
 * Tests for the campaign service layer: cache-key derivation, the
 * warm PreparedCampaign cache, concurrent FIFO/quota admission with
 * single-flight preparation, the restart-persistent disk cache, and
 * the NDJSON protocol encode/decode halves (inject/service.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/serial.hh"
#include "inject/campaign.hh"
#include "inject/service.hh"

namespace
{

using namespace dfi;
using namespace dfi::inject;

CampaignConfig
smokeConfig()
{
    CampaignConfig cfg;
    cfg.coreName = "marss-x86";
    cfg.benchmark = "micro";
    cfg.component = "int_regfile";
    cfg.numInjections = 24;
    cfg.seed = 7;
    return cfg;
}

// ---------------------------------------------------------------
// CampaignConfig::cacheKey()
// ---------------------------------------------------------------

/**
 * The key must be a pure function of the campaign-relevant values —
 * stable across processes, hosts, and sessions — so the expected
 * digest is a literal.  If this test fails, the key derivation
 * changed and every previously cached artifact silently becomes
 * unreachable: bump the version tag in cacheKey() deliberately, not
 * by accident.
 */
TEST(CacheKey, PinnedDigestIsStableAcrossProcesses)
{
    EXPECT_EQ(smokeConfig().cacheKey(), "709a0fa662302086");
}

/**
 * The prepared-state key names the `prep_` spill files on disk, so
 * it is pinned for the same reason: a silent derivation change would
 * orphan every spill.  Bump its own version tag in prepKey() instead.
 */
TEST(CacheKey, PinnedPrepKeyIsStableAcrossProcesses)
{
    EXPECT_EQ(smokeConfig().prepKey(), "b393f958ffa93d2a");
}

TEST(CacheKey, IgnoresExecutionStrategyAndTelemetryFields)
{
    const std::string base = smokeConfig().cacheKey();
    const std::string prep_base = smokeConfig().prepKey();

    CampaignConfig cfg = smokeConfig();
    cfg.jobs = 8;
    EXPECT_EQ(cfg.cacheKey(), base);
    EXPECT_EQ(cfg.prepKey(), prep_base);

    cfg = smokeConfig();
    cfg.telemetryOut = "/tmp/somewhere";
    cfg.telemetryTiming = true;
    cfg.telemetryCapture = true;
    EXPECT_EQ(cfg.cacheKey(), base);
    EXPECT_EQ(cfg.prepKey(), prep_base);

    cfg = smokeConfig();
    cfg.resumeFrom = "/tmp/prior.jsonl";
    EXPECT_EQ(cfg.cacheKey(), base);
    EXPECT_EQ(cfg.prepKey(), prep_base);

    cfg = smokeConfig();
    cfg.shard.index = 1;
    cfg.shard.count = 4;
    EXPECT_EQ(cfg.cacheKey(), base);
    EXPECT_EQ(cfg.prepKey(), prep_base);

    cfg = smokeConfig();
    cfg.prune = false;
    EXPECT_EQ(cfg.cacheKey(), base);
    EXPECT_EQ(cfg.prepKey(), prep_base);
}

/**
 * One table drives both keys.  Every row changes cacheKey(), the
 * response's identity; only the rows marked as prepare inputs — the
 * fields InjectionCampaign::prepare() reads — change prepKey(), so
 * campaigns differing in any other row share one preparation.
 */
TEST(CacheKey, ChangesWhenAnyCampaignRelevantFieldChanges)
{
    struct Mutation
    {
        const char *name;
        bool prepareInput;
        void (*mutate)(CampaignConfig &);
    };
    const std::vector<Mutation> mutations = {
        {"component", false,
         [](CampaignConfig &c) { c.component = "l1d"; }},
        {"benchmark", true,
         [](CampaignConfig &c) { c.benchmark = "sha"; }},
        {"scale", true, [](CampaignConfig &c) { c.scale = 2; }},
        {"core", true,
         [](CampaignConfig &c) { c.coreName = "gem5-arm"; }},
        {"injections", false,
         [](CampaignConfig &c) { c.numInjections = 25; }},
        {"confidence", false,
         [](CampaignConfig &c) {
             c.numInjections = 0;
             c.confidence = 0.95;
         }},
        {"margin", false,
         [](CampaignConfig &c) {
             c.numInjections = 0;
             c.margin = 0.05;
         }},
        {"exhaustive", false,
         [](CampaignConfig &c) {
             c.numInjections = 0;
             c.exhaustive = true;
         }},
        {"fault_type", false,
         [](CampaignConfig &c) { c.faultType = FaultType::Permanent; }},
        {"population", false,
         [](CampaignConfig &c) {
             c.population = Population::DoubleAdjacent;
         }},
        {"intermittent_min", false,
         [](CampaignConfig &c) { c.intermittentMin = 51; }},
        {"intermittent_max", false,
         [](CampaignConfig &c) { c.intermittentMax = 501; }},
        {"cache_scale", true,
         [](CampaignConfig &c) { c.cacheScale = 0.125; }},
        {"timeout_factor", false,
         [](CampaignConfig &c) { c.timeoutFactor = 4.0; }},
        {"early_stop_invalid_entry", false,
         [](CampaignConfig &c) { c.earlyStopInvalidEntry = false; }},
        {"early_stop_overwrite", false,
         [](CampaignConfig &c) { c.earlyStopOverwrite = false; }},
        {"seed", false, [](CampaignConfig &c) { c.seed = 8; }},
        {"use_checkpoints", true,
         [](CampaignConfig &c) { c.useCheckpoints = false; }},
        {"checkpoint_count", true,
         [](CampaignConfig &c) { c.checkpointCount = 7; }},
        {"checkpoint_budget", true,
         [](CampaignConfig &c) { c.checkpointMemBudgetMB = 128; }},
    };

    const std::string base = smokeConfig().cacheKey();
    const std::string prep_base = smokeConfig().prepKey();
    std::vector<std::string> keys{base};
    std::vector<std::string> prep_keys{prep_base};
    std::size_t prepare_inputs = 0;
    for (const Mutation &row : mutations) {
        CampaignConfig cfg = smokeConfig();
        row.mutate(cfg);
        const std::string key = cfg.cacheKey();
        EXPECT_NE(key, base) << "field did not affect the key: "
                             << row.name;
        for (const std::string &prior : keys)
            EXPECT_NE(key, prior)
                << "key collision involving field: " << row.name;
        keys.push_back(key);

        const std::string prep_key = cfg.prepKey();
        if (!row.prepareInput) {
            EXPECT_EQ(prep_key, prep_base)
                << "prepare() does not read this field, but it "
                   "split the prepared state: "
                << row.name;
            continue;
        }
        ++prepare_inputs;
        for (const std::string &prior : prep_keys)
            EXPECT_NE(prep_key, prior)
                << "prepare input did not get its own prepKey: "
                << row.name;
        prep_keys.push_back(prep_key);
    }
    EXPECT_EQ(prepare_inputs, 7u);
}

// ---------------------------------------------------------------
// Protocol encode/decode
// ---------------------------------------------------------------

TEST(ServiceProtocol, RequestRoundTripPreservesConfig)
{
    ServiceRequest request;
    request.op = "campaign";
    request.client = "ci";
    request.config.coreName = "gem5-arm";
    request.config.benchmark = "crc";
    request.config.component = "rob";
    request.config.scale = 3;
    request.config.numInjections = 99;
    request.config.confidence = 0.95;
    request.config.margin = 0.05;
    request.config.faultType = FaultType::Intermittent;
    request.config.population = Population::DoubleRandom;
    request.config.intermittentMin = 10;
    request.config.intermittentMax = 20;
    request.config.exhaustive = true;
    request.config.prune = false;
    request.config.cacheScale = 0.5;
    request.config.timeoutFactor = 5.0;
    request.config.earlyStopInvalidEntry = false;
    request.config.earlyStopOverwrite = false;
    request.config.useCheckpoints = false;
    request.config.checkpointCount = 9;
    request.config.checkpointMemBudgetMB = 64;
    request.config.seed = 1234;
    request.config.jobs = 4;
    request.config.telemetryTiming = true;

    ServiceRequest decoded;
    std::string error;
    ASSERT_TRUE(decodeServiceRequest(encodeServiceRequest(request),
                                     decoded, error))
        << error;
    EXPECT_EQ(decoded.op, "campaign");
    EXPECT_EQ(decoded.client, "ci");
    // Campaign-relevant equality is exactly key equality, plus the
    // execution knobs the protocol carries.
    EXPECT_EQ(decoded.config.cacheKey(), request.config.cacheKey());
    EXPECT_EQ(decoded.config.jobs, 4u);
    EXPECT_FALSE(decoded.config.prune);
    EXPECT_TRUE(decoded.config.telemetryTiming);
}

TEST(ServiceProtocol, DecodeRejectsUnknownOpAndKeys)
{
    json::Value line = encodeServiceRequest(ServiceRequest{});
    std::string error;
    ServiceRequest out;

    json::Value bad_op = line;
    bad_op.set("op", json::Value::string("explode"));
    EXPECT_FALSE(decodeServiceRequest(bad_op, out, error));
    EXPECT_NE(error.find("unknown operation"), std::string::npos);

    json::Value bad_cfg = line;
    json::Value cfg = json::Value::object();
    cfg.set("telemetry_out", json::Value::string("/tmp/x"));
    bad_cfg.set("config", cfg);
    EXPECT_FALSE(decodeServiceRequest(bad_cfg, out, error));
    EXPECT_NE(error.find("unknown key"), std::string::npos);

    json::Value bad_type = line;
    cfg = json::Value::object();
    cfg.set("injections", json::Value::string("many"));
    bad_type.set("config", cfg);
    EXPECT_FALSE(decodeServiceRequest(bad_type, out, error));
}

TEST(ServiceProtocol, DecodeRejectsNegativeIntegersWithoutAborting)
{
    // Parsed wire bytes, not a hand-built tree: the parser stores
    // -1 as Kind::Int with the negative flag, which asUint() would
    // abort on -- the decoder must turn it into an error instead.
    json::Value line;
    std::string error;
    ASSERT_TRUE(json::parse(
        "{\"kind\":\"dfi-request\",\"op\":\"campaign\","
        "\"config\":{\"injections\":-1}}",
        line, error));
    ServiceRequest out;
    EXPECT_FALSE(decodeServiceRequest(line, out, error));
    EXPECT_NE(error.find("unsigned integer"), std::string::npos);

    // Negative doubles stay legal wherever a number is expected.
    json::Value number_cfg;
    ASSERT_TRUE(json::parse(
        "{\"kind\":\"dfi-request\",\"op\":\"campaign\","
        "\"config\":{\"confidence\":-0.5}}",
        number_cfg, error));
    EXPECT_TRUE(decodeServiceRequest(number_cfg, out, error));
    EXPECT_EQ(out.config.confidence, -0.5);

    // Negative counts in a response are rejected, not aborted on.
    json::Value response_line;
    ASSERT_TRUE(json::parse(
        "{\"kind\":\"dfi-response\",\"op\":\"campaign\","
        "\"ok\":true,\"runs_total\":-3,"
        "\"counts\":{\"Masked\":-1}}",
        response_line, error));
    ServiceResponse response;
    EXPECT_FALSE(
        decodeServiceResponse(response_line, response, error));
    EXPECT_NE(error.find("unsigned"), std::string::npos);
}

TEST(ServiceProtocol, DecodeRejectsValuesThatDoNotFitTheField)
{
    // scale, jobs and checkpoints are 32-bit fields: a wider value is
    // an error naming the key, never a silent truncation (2^32 + 1
    // would become scale 1, 2^32 jobs 0 = every hardware thread).
    for (const char *key : {"scale", "jobs", "checkpoints"}) {
        const std::string prefix =
            std::string("{\"kind\":\"dfi-request\",\"op\":\"campaign\","
                        "\"config\":{\"") +
            key + "\":";
        json::Value line;
        std::string error;
        ServiceRequest out;
        ASSERT_TRUE(json::parse(prefix + "4294967296}}", line, error));
        EXPECT_FALSE(decodeServiceRequest(line, out, error)) << key;
        EXPECT_NE(error.find(std::string("config.") + key),
                  std::string::npos)
            << error;

        ASSERT_TRUE(json::parse(prefix + "4294967295}}", line, error));
        EXPECT_TRUE(decodeServiceRequest(line, out, error)) << error;
    }
}

/**
 * The request line is the wire format old clients and daemons speak:
 * its config object is the telemetry config echo followed by the six
 * execution members.  Pinned byte for byte so a change to either half
 * shows up here, not as a silent protocol break.
 */
TEST(ServiceProtocol, RequestLineBytesArePinned)
{
    ServiceRequest request;
    request.op = "campaign";
    request.client = "ci";
    request.config = smokeConfig();
    EXPECT_EQ(
        encodeServiceRequest(request).dump(),
        "{\"kind\":\"dfi-request\",\"op\":\"campaign\",\"client\":"
        "\"ci\",\"config\":{\"component\":\"int_regfile\","
        "\"benchmark\":\"micro\",\"scale\":1,\"core\":\"marss-x86\","
        "\"injections\":24,\"confidence\":0.99,\"margin\":0.03,"
        "\"exhaustive\":false,\"fault_type\":\"transient\","
        "\"population\":\"single\",\"intermittent_min\":50,"
        "\"intermittent_max\":500,\"cache_scale\":0.0625,"
        "\"timeout_factor\":3,\"early_stop_invalid_entry\":true,"
        "\"early_stop_overwrite\":true,\"seed\":7,\"prune\":true,"
        "\"jobs\":1,\"telemetry_timing\":false,"
        "\"use_checkpoints\":true,\"checkpoints\":6,"
        "\"checkpoint_budget_mb\":256}}");
}

TEST(ServiceProtocol, ProgressRoundTrip)
{
    json::Value line;
    std::string error;
    ASSERT_TRUE(json::parse(encodeServiceProgress(3, 24).dump(), line,
                            error))
        << error;
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    ASSERT_TRUE(decodeServiceProgress(line, done, total));
    EXPECT_EQ(done, 3u);
    EXPECT_EQ(total, 24u);
}

TEST(ServiceProtocol, ProgressDecodeRejectsMalformedCounts)
{
    const char *bad[] = {
        R"({"kind":"dfi-progress","total":24})",
        R"({"kind":"dfi-progress","done":3})",
        R"({"kind":"dfi-progress","done":-1,"total":24})",
        R"({"kind":"dfi-progress","done":3,"total":-24})",
        R"({"kind":"dfi-progress","done":1.5,"total":24})",
        R"({"kind":"dfi-progress","done":3,"total":"24"})",
        R"({"kind":"dfi-response","done":3,"total":24})",
    };
    for (const char *text : bad) {
        json::Value line;
        std::string error;
        ASSERT_TRUE(json::parse(text, line, error)) << error;
        std::uint64_t done = 0;
        std::uint64_t total = 0;
        EXPECT_FALSE(decodeServiceProgress(line, done, total)) << text;
    }
}

TEST(ServiceProtocol, ResponseRoundTripPreservesArtifacts)
{
    ServiceResponse response;
    response.ok = true;
    response.op = "campaign";
    response.cacheKey = "0123456789abcdef";
    response.cacheHit = true;
    response.runsTotal = 24;
    for (std::size_t i = 0; i < response.counts.counts.size(); ++i)
        response.counts.counts[i] = i + 1;
    response.vulnerability = 4.25;
    response.telemetryRuns = "{\"kind\":\"header\"}\n{\"run\":1}\n";
    response.telemetrySummary = "{\n  \"schema\": 3\n}\n";

    ServiceResponse decoded;
    std::string error;
    ASSERT_TRUE(decodeServiceResponse(encodeServiceResponse(response),
                                      decoded, error))
        << error;
    EXPECT_TRUE(decoded.ok);
    EXPECT_EQ(decoded.cacheKey, "0123456789abcdef");
    EXPECT_TRUE(decoded.cacheHit);
    EXPECT_EQ(decoded.runsTotal, 24u);
    EXPECT_EQ(decoded.counts.counts, response.counts.counts);
    EXPECT_DOUBLE_EQ(decoded.vulnerability, 4.25);
    EXPECT_EQ(decoded.telemetryRuns, response.telemetryRuns);
    EXPECT_EQ(decoded.telemetrySummary, response.telemetrySummary);
}

// ---------------------------------------------------------------
// PreparedCampaign sharing
// ---------------------------------------------------------------

TEST(PreparedCampaign, AdoptedPreparationReproducesColdRun)
{
    InjectionCampaign cold(smokeConfig());
    const CampaignResult cold_result = cold.run();

    InjectionCampaign warm(smokeConfig());
    warm.adoptPrepared(cold.prepared());
    const CampaignResult warm_result = warm.run();

    ASSERT_EQ(warm_result.records.size(),
              cold_result.records.size());
    for (std::size_t i = 0; i < cold_result.records.size(); ++i) {
        EXPECT_EQ(warm_result.records[i].term,
                  cold_result.records[i].term);
        EXPECT_EQ(warm_result.records[i].cycles,
                  cold_result.records[i].cycles);
        EXPECT_EQ(warm_result.records[i].output,
                  cold_result.records[i].output);
    }
    EXPECT_EQ(warm_result.pruned.size(), cold_result.pruned.size());
}

/**
 * Single flight per component: racing requests for one component's
 * trace share one build and one object; another component gets its
 * own trace.
 */
TEST(PreparedCampaign, TraceBuiltOncePerComponentUnderConcurrency)
{
    const std::shared_ptr<const PreparedCampaign> prep =
        InjectionCampaign(smokeConfig()).prepared();
    std::vector<std::shared_ptr<const GoldenTrace>> traces(4);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < traces.size(); ++i) {
        threads.emplace_back([&prep, &traces, i] {
            traces[i] = prep->trace("int_regfile");
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (const auto &trace : traces) {
        ASSERT_NE(trace, nullptr);
        EXPECT_EQ(trace, traces[0]);
    }
    EXPECT_EQ(prep->traceBuilds(), 1u);

    const std::shared_ptr<const GoldenTrace> other = prep->trace("l1d");
    EXPECT_NE(other, traces[0]);
    EXPECT_EQ(prep->traceBuilds(), 2u);
    // One golden run, one committed-instructions table.
    EXPECT_EQ(other->committedAfter, traces[0]->committedAfter);
    EXPECT_EQ(prep->trace("int_regfile"), traces[0]);
}

/** The archive of one core, pages interned within it alone. */
std::string
coreBytes(const uarch::OooCore &core)
{
    serial::Writer writer;
    const_cast<uarch::OooCore &>(core).serializeState(writer);
    EXPECT_TRUE(writer.ok());
    return writer.buffer();
}

/**
 * The dense store is the golden run replayed: it holds every cycle
 * the coarse store holds and more, and at each shared cycle its
 * snapshot serializes to the coarse snapshot's bytes.
 */
TEST(PreparedCampaign, DenseSnapshotsEqualCoarseOnesAtSharedCycles)
{
    const std::shared_ptr<const PreparedCampaign> prep =
        InjectionCampaign(smokeConfig()).prepared();
    const CheckpointStore &coarse = prep->checkpoints;
    const std::shared_ptr<const CheckpointStore> dense = prep->refined();
    ASSERT_NE(dense, nullptr);
    EXPECT_GT(dense->count(), coarse.count());
    EXPECT_EQ(dense->snapshotBoundBytes(), coarse.snapshotBoundBytes());
    EXPECT_EQ(prep->refinedBytes(), dense->heldBytes());

    for (const std::uint64_t cycle : coarse.cycles()) {
        const std::vector<std::uint64_t> &held = dense->cycles();
        ASSERT_TRUE(std::binary_search(held.begin(), held.end(), cycle))
            << "cycle " << cycle;
        // sourceFor(c + 1) is the snapshot taken at c.
        const uarch::OooCore &a = coarse.sourceFor(cycle + 1);
        const uarch::OooCore &b = dense->sourceFor(cycle + 1);
        ASSERT_EQ(a.cycle(), cycle);
        ASSERT_EQ(b.cycle(), cycle);
        EXPECT_EQ(coreBytes(a), coreBytes(b)) << "cycle " << cycle;
    }
}

/**
 * Concurrent campaigns on one prepared state share one dense store:
 * one replay, one object, and every campaign's runs restore from it.
 */
TEST(PreparedCampaign, DenseStoreBuiltOnceUnderConcurrentRuns)
{
    CampaignConfig cfg = smokeConfig();
    cfg.numInjections = 6;
    cfg.prune = false;
    cfg.telemetryCapture = true;
    const std::shared_ptr<const PreparedCampaign> prep =
        InjectionCampaign(cfg).prepared();
    std::vector<std::string> runs(4);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        threads.emplace_back([&prep, &runs, cfg, i] {
            InjectionCampaign campaign(cfg);
            campaign.adoptPrepared(prep);
            runs[i] = campaign.run().telemetryRuns;
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(prep->refines(), 1u);
    for (const std::string &stream : runs) {
        EXPECT_FALSE(stream.empty());
        EXPECT_EQ(stream, runs[0]);
    }
    EXPECT_EQ(prep->refined(), prep->refined());
    EXPECT_EQ(prep->refines(), 1u);
}

/**
 * The dense store costs a golden replay, so nothing builds it that
 * will not restore from it: a plan the pruner fully classified, a
 * campaign without checkpoints, and a dry run.
 */
TEST(PreparedCampaign, NoDenseStoreWithoutASimulatedRun)
{
    // The gem5-x86 smoke campaign prunes all 24 runs (its golden).
    CampaignConfig pruned = smokeConfig();
    pruned.coreName = "gem5-x86";
    InjectionCampaign all_pruned(pruned);
    const CampaignResult result = all_pruned.run();
    ASSERT_TRUE(result.records.empty());
    EXPECT_EQ(all_pruned.prepared()->refines(), 0u);

    CampaignConfig off = smokeConfig();
    off.prune = false;
    off.useCheckpoints = false;
    InjectionCampaign no_checkpoints(off);
    ASSERT_FALSE(no_checkpoints.run().records.empty());
    EXPECT_EQ(no_checkpoints.prepared()->refines(), 0u);

    CampaignConfig dry = smokeConfig();
    dry.prune = false;
    InjectionCampaign dry_run(dry);
    ASSERT_GT(dry_run.planSummary().executed, 0u);
    EXPECT_EQ(dry_run.prepared()->refines(), 0u);
}

// ---------------------------------------------------------------
// CampaignService
// ---------------------------------------------------------------

TEST(Service, WarmRequestHitsCacheWithIdenticalArtifacts)
{
    CampaignService service({});
    ServiceRequest request;
    request.config = smokeConfig();

    const ServiceResponse cold = service.execute(request);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_FALSE(cold.cacheHit);
    EXPECT_EQ(cold.runsTotal, 24u);
    EXPECT_FALSE(cold.telemetryRuns.empty());
    EXPECT_FALSE(cold.telemetrySummary.empty());

    const ServiceResponse warm = service.execute(request);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.cacheKey, cold.cacheKey);
    EXPECT_EQ(warm.telemetryRuns, cold.telemetryRuns);
    EXPECT_EQ(warm.telemetrySummary, cold.telemetrySummary);

    const CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GT(stats.bytes, 0u);
}

TEST(Service, ZeroBudgetDisablesCaching)
{
    CampaignService::Options options;
    options.cacheBudgetBytes = 0;
    CampaignService service(options);
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    EXPECT_FALSE(service.execute(request).cacheHit);
    EXPECT_FALSE(service.execute(request).cacheHit);
    const CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.entries, 0u);
}

TEST(Service, LruEvictsColdestEntryWhenOverBudget)
{
    // Size the budget from a first service so it holds exactly one
    // preparation; the entries for configs A and B are the same
    // shape, so inserting B must evict A.  B differs in a prepare
    // input (the checkpoint budget, which micro never exhausts), so
    // it needs a preparation of its own.
    ServiceRequest a;
    a.config = smokeConfig();
    a.config.numInjections = 8;
    ServiceRequest b = a;
    b.config.checkpointMemBudgetMB = 255;
    ASSERT_NE(a.config.prepKey(), b.config.prepKey());

    CampaignService sizing({});
    ASSERT_TRUE(sizing.execute(a).ok);
    const std::uint64_t one_entry = sizing.cacheStats().bytes;
    ASSERT_GT(one_entry, 0u);
    // The budget holds exactly one entry only if B costs what A does
    // once served (a served entry is charged its golden trace too).
    CampaignService sizing_b({});
    ASSERT_TRUE(sizing_b.execute(b).ok);
    ASSERT_EQ(sizing_b.cacheStats().bytes, one_entry);

    CampaignService::Options options;
    options.cacheBudgetBytes = one_entry + 1;
    CampaignService service(options);

    ASSERT_FALSE(service.execute(a).cacheHit);
    ASSERT_FALSE(service.execute(b).cacheHit); // evicts a
    EXPECT_EQ(service.cacheStats().evictions, 1u);
    EXPECT_EQ(service.cacheStats().entries, 1u);

    EXPECT_TRUE(service.execute(b).cacheHit);  // b survived
    EXPECT_FALSE(service.execute(a).cacheHit); // a was evicted
}

/**
 * A served entry is charged its golden trace and its dense checkpoint
 * store: after a pruned request that simulates a run, the entry costs
 * the preparation plus both, and a budget that would hold two
 * preparations but not a preparation, its trace, its dense store and
 * a second preparation evicts the first when the second program
 * arrives.
 */
TEST(Service, TraceBytesAreChargedToTheBudget)
{
    ServiceRequest a;
    a.config = smokeConfig();
    a.config.numInjections = 8;
    ServiceRequest b = a;
    b.config.checkpointMemBudgetMB = 255; // same shape, own prepKey
    ASSERT_NE(a.config.prepKey(), b.config.prepKey());

    const std::uint64_t untraced =
        InjectionCampaign(a.config).prepared()->approxBytes();
    CampaignService sizing({});
    ASSERT_TRUE(sizing.execute(a).ok);
    const CampaignService::CacheStats sized = sizing.cacheStats();
    EXPECT_EQ(sized.traceBuilds, 1u);
    ASSERT_GT(sized.traceBytes, 0u);
    EXPECT_EQ(sized.refines, 1u);
    ASSERT_GT(sized.refinedBytes, 0u);
    EXPECT_EQ(sized.bytes,
              untraced + sized.traceBytes + sized.refinedBytes);

    // A sweep on the cached program reuses the trace of its
    // component and builds one for a new component.
    ServiceRequest sweep = a;
    sweep.config.seed = 8;
    ASSERT_TRUE(sizing.execute(sweep).ok);
    EXPECT_EQ(sizing.cacheStats().traceBuilds, 1u);
    sweep.config.component = "l1d";
    ASSERT_TRUE(sizing.execute(sweep).ok);
    EXPECT_EQ(sizing.cacheStats().traceBuilds, 2u);
    EXPECT_GT(sizing.cacheStats().traceBytes, sized.traceBytes);
    // One dense store serves every request on the program.
    EXPECT_EQ(sizing.cacheStats().refines, 1u);
    EXPECT_EQ(sizing.cacheStats().refinedBytes, sized.refinedBytes);

    CampaignService::Options options;
    options.cacheBudgetBytes =
        2 * untraced + sized.traceBytes + sized.refinedBytes - 1;
    CampaignService service(options);
    ASSERT_FALSE(service.execute(a).cacheHit);
    EXPECT_EQ(service.cacheStats().bytes, sized.bytes);
    ASSERT_FALSE(service.execute(b).cacheHit); // evicts a
    EXPECT_EQ(service.cacheStats().evictions, 1u);
    EXPECT_EQ(service.cacheStats().entries, 1u);
    EXPECT_EQ(service.cacheStats().bytes, sized.bytes);
    EXPECT_TRUE(service.execute(b).cacheHit);
    EXPECT_FALSE(service.execute(a).cacheHit);
}

/**
 * A sweep — another structure or seed on a program the service has
 * already prepared — adopts that preparation: one golden pass serves
 * every fault selection, and each served artifact stays byte-equal to
 * the same request prepared cold.
 */
TEST(Service, SweepsOfOneProgramShareOnePrepare)
{
    CampaignService service({});
    CampaignService::Options cold_options;
    cold_options.cacheBudgetBytes = 0;
    CampaignService cold_service(cold_options);

    bool first = true;
    for (const char *component :
         {"int_regfile", "l1d", "l1i", "l2", "lsq"}) {
        for (const std::uint64_t seed : {7u, 8u}) {
            ServiceRequest request;
            request.config = smokeConfig();
            request.config.numInjections = 8;
            request.config.component = component;
            request.config.seed = seed;
            const ServiceResponse warm = service.execute(request);
            const ServiceResponse cold = cold_service.execute(request);
            ASSERT_TRUE(warm.ok) << warm.error;
            ASSERT_TRUE(cold.ok) << cold.error;
            EXPECT_EQ(warm.cacheSource, first ? "none" : "memory")
                << component << " seed " << seed;
            EXPECT_EQ(cold.cacheSource, "none");
            EXPECT_EQ(warm.cacheKey, cold.cacheKey);
            EXPECT_EQ(warm.telemetryRuns, cold.telemetryRuns)
                << component << " seed " << seed;
            EXPECT_EQ(warm.telemetrySummary, cold.telemetrySummary)
                << component << " seed " << seed;
            first = false;
        }
    }
    const CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 9u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(Service, ExecuteReportsInvalidConfigInsteadOfThrowing)
{
    CampaignService service({});
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.component = "no_such_component";
    const ServiceResponse response = service.execute(request);
    EXPECT_FALSE(response.ok);
    EXPECT_FALSE(response.error.empty());
}

TEST(Service, QueuedRequestsAllCompleteAcrossThreads)
{
    CampaignService service({});
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    std::vector<std::thread> threads;
    std::vector<ServiceResponse> responses(4);
    for (int i = 0; i < 4; ++i) {
        threads.emplace_back([&service, &responses, request, i] {
            ServiceRequest mine = request;
            mine.client = "client-" + std::to_string(i);
            responses[static_cast<std::size_t>(i)] =
                service.executeQueued(mine);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (const ServiceResponse &response : responses) {
        EXPECT_TRUE(response.ok) << response.error;
        EXPECT_EQ(response.runsTotal, 8u);
    }
    // One cold preparation, three warm adoptions (FIFO: the first
    // served request misses, every later one hits).
    const CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 3u);
}

TEST(Service, ZeroQuotaRejectsAdmission)
{
    CampaignService::Options options;
    options.perClientInFlight = 0;
    CampaignService service(options);
    ServiceRequest request;
    request.config = smokeConfig();
    const ServiceResponse response = service.executeQueued(request);
    EXPECT_FALSE(response.ok);
    EXPECT_NE(response.error.find("quota exceeded"),
              std::string::npos)
        << response.error;
}

TEST(Service, DrainRejectsNewRequests)
{
    CampaignService service({});
    service.drain();
    ServiceRequest request;
    request.config = smokeConfig();
    const ServiceResponse response = service.executeQueued(request);
    EXPECT_FALSE(response.ok);
    EXPECT_NE(response.error.find("draining"), std::string::npos);
}

TEST(Service, StatsJsonCarriesCacheAndQueueCounters)
{
    CampaignService::Options options;
    options.workers = 3;
    CampaignService service(options);
    const json::Value stats = service.statsJson();
    ASSERT_NE(stats.find("cache"), nullptr);
    ASSERT_NE(stats.find("queue"), nullptr);
    EXPECT_EQ(stats.get("cache").get("hits").asUint(), 0u);
    EXPECT_EQ(stats.get("cache").get("coalesced").asUint(), 0u);
    EXPECT_EQ(stats.get("cache").get("disk_hits").asUint(), 0u);
    EXPECT_EQ(stats.get("cache").get("response_hits").asUint(), 0u);
    EXPECT_EQ(stats.get("cache").get("refines").asUint(), 0u);
    EXPECT_EQ(stats.get("cache").get("refined_bytes").asUint(), 0u);
    EXPECT_EQ(stats.get("queue").get("capacity").asUint(), 64u);
    EXPECT_EQ(stats.get("queue").get("workers").asUint(), 3u);
    EXPECT_EQ(stats.get("queue").get("running").asUint(), 0u);
}

// ---------------------------------------------------------------
// Protocol: retryable rejections and cache provenance
// ---------------------------------------------------------------

TEST(ServiceProtocol, RetryableAndCacheSourceRoundTrip)
{
    ServiceResponse rejected;
    rejected.ok = false;
    rejected.op = "campaign";
    rejected.error = "queue full";
    rejected.retryable = true;

    ServiceResponse decoded;
    std::string error;
    ASSERT_TRUE(decodeServiceResponse(
        encodeServiceResponse(rejected), decoded, error))
        << error;
    EXPECT_FALSE(decoded.ok);
    EXPECT_EQ(decoded.op, "campaign");
    EXPECT_EQ(decoded.error, "queue full");
    EXPECT_TRUE(decoded.retryable);

    ServiceResponse served;
    served.ok = true;
    served.op = "campaign";
    served.cacheKey = "0123456789abcdef";
    served.cacheHit = true;
    served.cacheSource = "disk";
    ASSERT_TRUE(decodeServiceResponse(
        encodeServiceResponse(served), decoded, error))
        << error;
    EXPECT_TRUE(decoded.ok);
    EXPECT_FALSE(decoded.retryable);
    EXPECT_EQ(decoded.cacheSource, "disk");
}

TEST(Service, RejectionsCarryOpAndRetryable)
{
    ServiceRequest request;
    request.config = smokeConfig();

    {
        CampaignService service({});
        service.drain();
        const ServiceResponse r = service.executeQueued(request);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.op, "campaign");
        EXPECT_TRUE(r.retryable);
        EXPECT_NE(r.error.find("draining"), std::string::npos);
    }
    {
        CampaignService::Options options;
        options.perClientInFlight = 0;
        CampaignService service(options);
        const ServiceResponse r = service.executeQueued(request);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.op, "campaign");
        EXPECT_TRUE(r.retryable);
        EXPECT_NE(r.error.find("quota exceeded"),
                  std::string::npos);
    }
    {
        CampaignService::Options options;
        options.queueCapacity = 0;
        CampaignService service(options);
        const ServiceResponse r = service.executeQueued(request);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.op, "campaign");
        EXPECT_TRUE(r.retryable);
        EXPECT_NE(r.error.find("queue full"), std::string::npos);
    }
    {
        // Hard errors are not retryable: resubmitting a bad config
        // can only fail the same way.
        CampaignService service({});
        ServiceRequest bad = request;
        bad.config.component = "no_such_component";
        const ServiceResponse r = service.execute(bad);
        EXPECT_FALSE(r.ok);
        EXPECT_FALSE(r.retryable);
    }
}

// ---------------------------------------------------------------
// Concurrent execution and single-flight preparation
// ---------------------------------------------------------------

TEST(Service, ConcurrentWorkersShareOneSingleFlightPrepare)
{
    CampaignService::Options options;
    options.workers = 4;
    CampaignService service(options);
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    std::vector<std::thread> threads;
    std::vector<ServiceResponse> responses(4);
    for (int i = 0; i < 4; ++i) {
        threads.emplace_back([&service, &responses, request, i] {
            ServiceRequest mine = request;
            mine.client = "client-" + std::to_string(i);
            responses[static_cast<std::size_t>(i)] =
                service.executeQueued(mine);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (const ServiceResponse &response : responses) {
        EXPECT_TRUE(response.ok) << response.error;
        EXPECT_EQ(response.runsTotal, 8u);
        EXPECT_EQ(response.telemetryRuns,
                  responses[0].telemetryRuns);
    }
    // Single-flight: however the four racing requests interleave,
    // exactly one prepares cold and the other three share it (by
    // joining the flight or by hitting the LRU afterwards).
    const CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(Service, ConcurrentDistinctKeysPrepareIndependently)
{
    CampaignService::Options options;
    options.workers = 4;
    CampaignService service(options);

    // Three programs: the same smoke campaign on each core model.
    const char *const cores[] = {"marss-x86", "gem5-x86", "gem5-arm"};
    std::vector<std::thread> threads;
    std::vector<ServiceResponse> responses(3);
    for (int i = 0; i < 3; ++i) {
        threads.emplace_back([&service, &responses, &cores, i] {
            ServiceRequest mine;
            mine.client = "client-" + std::to_string(i);
            mine.config = smokeConfig();
            mine.config.numInjections = 8;
            mine.config.coreName = cores[i];
            responses[static_cast<std::size_t>(i)] =
                service.executeQueued(mine);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (const ServiceResponse &response : responses) {
        EXPECT_TRUE(response.ok) << response.error;
        EXPECT_FALSE(response.cacheHit);
    }
    const CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.coalesced, 0u);
    EXPECT_EQ(stats.entries, 3u);
}

/** Disarms the failpoint registry on scope exit (test hygiene). */
struct FailpointGuard
{
    ~FailpointGuard() { failpoint::reset(); }
};

TEST(Service, DrainUnderLoadCompletesAdmittedRequests)
{
    // Every request sleeps in the prepare seam, so none can finish
    // before all four are admitted, however fast a campaign runs.
    FailpointGuard guard;
    std::string error;
    ASSERT_TRUE(failpoint::configure("prep.alloc=delay:300", error))
        << error;

    CampaignService::Options options;
    options.workers = 2;
    CampaignService service(options);
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    std::vector<std::thread> threads;
    std::vector<ServiceResponse> responses(4);
    for (int i = 0; i < 4; ++i) {
        threads.emplace_back([&service, &responses, request, i] {
            ServiceRequest mine = request;
            mine.client = "client-" + std::to_string(i);
            responses[static_cast<std::size_t>(i)] =
                service.executeQueued(mine);
        });
    }

    // Wait until all four are admitted, then drain mid-flight: every
    // admitted request must still complete successfully.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    bool admitted = false;
    while (!admitted && std::chrono::steady_clock::now() < deadline) {
        admitted =
            service.statsJson().get("queue").get("active").asUint() ==
            4;
        if (!admitted)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(admitted) << "four requests were never in flight at once";
    service.drain();

    for (std::thread &thread : threads)
        thread.join();
    for (const ServiceResponse &response : responses)
        EXPECT_TRUE(response.ok) << response.error;
    EXPECT_EQ(failpoint::fireCount("prep.alloc"), 4u);
}

// ---------------------------------------------------------------
// PreparedCampaign serialization (common/serial.hh)
// ---------------------------------------------------------------

TEST(PreparedSerial, SaveLoadRoundTripReproducesCampaign)
{
    CampaignConfig cfg = smokeConfig();
    cfg.numInjections = 8;
    cfg.telemetryCapture = true;

    InjectionCampaign source(cfg);
    const std::shared_ptr<const PreparedCampaign> original =
        source.prepared();

    serial::Writer writer;
    savePreparedCampaign(*original, writer);

    serial::Reader reader(writer.buffer());
    std::string error;
    const std::shared_ptr<const PreparedCampaign> loaded =
        loadPreparedCampaign(cfg, reader, error);
    ASSERT_NE(loaded, nullptr) << error;

    EXPECT_EQ(loaded->expectedOutput, original->expectedOutput);
    EXPECT_EQ(loaded->golden.cycles, original->golden.cycles);
    EXPECT_EQ(loaded->checkpoints.count(),
              original->checkpoints.count());
    EXPECT_EQ(loaded->checkpoints.cycles(),
              original->checkpoints.cycles());

    // The decisive check: a campaign adopting the loaded state
    // produces byte-identical artifacts to one adopting the live
    // original.
    InjectionCampaign live(cfg);
    live.adoptPrepared(original);
    const CampaignResult live_result = live.run();

    InjectionCampaign restored(cfg);
    restored.adoptPrepared(loaded);
    const CampaignResult restored_result = restored.run();

    EXPECT_EQ(restored_result.telemetryRuns,
              live_result.telemetryRuns);
    EXPECT_EQ(restored_result.telemetrySummary,
              live_result.telemetrySummary);
    // The simulator counters ride in the archive too.
    EXPECT_GT(live_result.aggregateStats.get("committed_instructions"),
              0u);
    EXPECT_EQ(restored_result.aggregateStats.dump(),
              live_result.aggregateStats.dump());
}

TEST(PreparedSerial, TruncatedStreamFailsInsteadOfLoading)
{
    CampaignConfig cfg = smokeConfig();
    cfg.numInjections = 8;

    InjectionCampaign source(cfg);
    serial::Writer writer;
    savePreparedCampaign(*source.prepared(), writer);

    const std::string truncated =
        writer.buffer().substr(0, writer.buffer().size() / 2);
    serial::Reader reader(truncated);
    std::string error;
    EXPECT_EQ(loadPreparedCampaign(cfg, reader, error), nullptr);
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------
// Restart-persistent disk cache
// ---------------------------------------------------------------

std::string
freshCacheDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(ServiceDisk, RestartServesResponseAndPreparedFromDisk)
{
    CampaignService::Options options;
    options.cacheDir =
        freshCacheDir("dfi-service-restart-cache");

    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    ServiceResponse cold;
    {
        CampaignService first(options);
        cold = first.execute(request);
        ASSERT_TRUE(cold.ok) << cold.error;
        EXPECT_FALSE(cold.cacheHit);
        EXPECT_EQ(cold.cacheSource, "none");
        const CampaignService::CacheStats stats =
            first.cacheStats();
        EXPECT_EQ(stats.diskStores, 1u);
        EXPECT_EQ(stats.responseStores, 1u);
    }

    // "Restart": a brand-new service over the same directory.  An
    // exact repeat replays the memoized response without executing.
    CampaignService second(options);
    const ServiceResponse memo = second.execute(request);
    ASSERT_TRUE(memo.ok) << memo.error;
    EXPECT_TRUE(memo.cacheHit);
    EXPECT_EQ(memo.cacheSource, "response");
    EXPECT_EQ(memo.telemetryRuns, cold.telemetryRuns);
    EXPECT_EQ(memo.telemetrySummary, cold.telemetrySummary);
    EXPECT_EQ(second.cacheStats().responseHits, 1u);

    // A run-set variation (prune off) misses the response memo —
    // its artifact bytes differ — but adopts the prepared state
    // from disk instead of re-simulating the golden run.
    ServiceRequest noprune = request;
    noprune.config.prune = false;
    const ServiceResponse disk = second.execute(noprune);
    ASSERT_TRUE(disk.ok) << disk.error;
    EXPECT_TRUE(disk.cacheHit);
    EXPECT_EQ(disk.cacheSource, "disk");
    EXPECT_EQ(disk.cacheKey, cold.cacheKey);
    EXPECT_EQ(disk.counts.counts, cold.counts.counts);
    EXPECT_EQ(second.cacheStats().diskHits, 1u);

    std::filesystem::remove_all(options.cacheDir);
}

/**
 * The spill is named by what prepare() read, not by the request that
 * wrote it: after a restart, a request on another structure with
 * another seed adopts the spill of the first one.
 */
TEST(ServiceDisk, RestartServesAnotherStructureFromTheSpill)
{
    CampaignService::Options options;
    options.cacheDir = freshCacheDir("dfi-service-structure-cache");

    ServiceRequest regfile;
    regfile.config = smokeConfig();
    regfile.config.numInjections = 8;
    {
        CampaignService first(options);
        const ServiceResponse spilled = first.execute(regfile);
        ASSERT_TRUE(spilled.ok) << spilled.error;
        EXPECT_EQ(first.cacheStats().diskStores, 1u);
    }

    ServiceRequest l1d = regfile;
    l1d.config.component = "l1d";
    l1d.config.seed = 9;
    CampaignService second(options);
    const ServiceResponse warm = second.execute(l1d);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.cacheSource, "disk");
    EXPECT_EQ(second.cacheStats().diskHits, 1u);
    EXPECT_EQ(second.cacheStats().diskStores, 0u);

    // One spill for the program, one memo per request.
    std::size_t preps = 0;
    std::size_t resps = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(options.cacheDir)) {
        const std::string name = entry.path().filename().string();
        preps += name.rfind("prep_", 0) == 0 ? 1 : 0;
        resps += name.rfind("resp_", 0) == 0 ? 1 : 0;
    }
    EXPECT_EQ(preps, 1u);
    EXPECT_EQ(resps, 2u);

    CampaignService::Options cold_options;
    cold_options.cacheBudgetBytes = 0;
    CampaignService cold_service(cold_options);
    const ServiceResponse cold = cold_service.execute(l1d);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.cacheSource, "none");
    EXPECT_EQ(warm.telemetryRuns, cold.telemetryRuns);
    EXPECT_EQ(warm.telemetrySummary, cold.telemetrySummary);

    std::filesystem::remove_all(options.cacheDir);
}

TEST(ServiceDisk, CorruptSpillFilesFallBackToColdPrepare)
{
    CampaignService::Options options;
    options.cacheDir = freshCacheDir("dfi-service-corrupt-cache");

    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    ServiceResponse cold;
    {
        CampaignService first(options);
        cold = first.execute(request);
        ASSERT_TRUE(cold.ok) << cold.error;
    }

    // Truncate every cache file: the digest framing must turn them
    // into cold misses, never into wrong state.
    for (const auto &entry :
         std::filesystem::directory_iterator(options.cacheDir))
        std::filesystem::resize_file(
            entry.path(), std::filesystem::file_size(entry.path()) /
                              2);

    CampaignService second(options);
    const ServiceResponse fallback = second.execute(request);
    ASSERT_TRUE(fallback.ok) << fallback.error;
    EXPECT_FALSE(fallback.cacheHit);
    EXPECT_EQ(fallback.cacheSource, "none");
    EXPECT_EQ(second.cacheStats().diskHits, 0u);
    EXPECT_EQ(second.cacheStats().responseHits, 0u);
    EXPECT_EQ(fallback.telemetryRuns, cold.telemetryRuns);

    std::filesystem::remove_all(options.cacheDir);
}

/**
 * Rewrite the version tag at the head of a prepared-state spill file
 * and re-frame its trailing FNV-1a digest, so the file still passes
 * the integrity check and only the tag differs.
 */
void
retagSpill(const std::filesystem::path &path, const std::string &from,
           const std::string &to)
{
    ASSERT_EQ(from.size(), to.size());
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_GT(bytes.size(), sizeof(std::uint64_t));
    bytes.resize(bytes.size() - sizeof(std::uint64_t));
    // The stream opens with the tag: a u64 length, then the bytes.
    ASSERT_EQ(bytes.compare(sizeof(std::uint64_t), from.size(), from), 0);
    bytes.replace(sizeof(std::uint64_t), to.size(), to);
    const std::uint64_t digest = hash::fnv1a(bytes);
    bytes.append(reinterpret_cast<const char *>(&digest), sizeof digest);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

TEST(ServiceDisk, SpillWithAnOlderTagIsAColdMiss)
{
    CampaignService::Options options;
    options.cacheDir = freshCacheDir("dfi-service-tag-cache");

    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    ServiceResponse cold;
    {
        CampaignService first(options);
        cold = first.execute(request);
        ASSERT_TRUE(cold.ok) << cold.error;
    }
    // Drop the response memo so a restart has to load prepared state.
    std::filesystem::path spill;
    for (const auto &entry :
         std::filesystem::directory_iterator(options.cacheDir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("resp_", 0) == 0)
            std::filesystem::remove(entry.path());
        else if (name.rfind("prep_", 0) == 0)
            spill = entry.path();
    }
    ASSERT_FALSE(spill.empty());

    // Control: re-framed with the current tag, the spill still loads.
    ASSERT_NO_FATAL_FAILURE(
        retagSpill(spill, "dfi-prep-cache-v2", "dfi-prep-cache-v2"));
    {
        CampaignService second(options);
        const ServiceResponse warm = second.execute(request);
        ASSERT_TRUE(warm.ok) << warm.error;
        EXPECT_EQ(warm.cacheSource, "disk");
        EXPECT_EQ(warm.telemetryRuns, cold.telemetryRuns);
    }
    for (const auto &entry :
         std::filesystem::directory_iterator(options.cacheDir)) {
        if (entry.path().filename().string().rfind("resp_", 0) == 0)
            std::filesystem::remove(entry.path());
    }

    // A spill written under the previous format's tag is ignored and
    // the request prepares cold.
    ASSERT_NO_FATAL_FAILURE(
        retagSpill(spill, "dfi-prep-cache-v2", "dfi-prep-cache-v1"));
    CampaignService third(options);
    const ServiceResponse fallback = third.execute(request);
    ASSERT_TRUE(fallback.ok) << fallback.error;
    EXPECT_FALSE(fallback.cacheHit);
    EXPECT_EQ(fallback.cacheSource, "none");
    EXPECT_EQ(third.cacheStats().diskHits, 0u);
    EXPECT_EQ(fallback.telemetryRuns, cold.telemetryRuns);
    EXPECT_EQ(fallback.telemetrySummary, cold.telemetrySummary);

    std::filesystem::remove_all(options.cacheDir);
}

TEST(ServiceDisk, TimingResponsesAreNotMemoized)
{
    CampaignService::Options options;
    options.cacheDir = freshCacheDir("dfi-service-timing-cache");

    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;
    request.config.telemetryTiming = true;

    CampaignService service(options);
    ASSERT_TRUE(service.execute(request).ok);
    const ServiceResponse repeat = service.execute(request);
    ASSERT_TRUE(repeat.ok) << repeat.error;
    // Prepared state is shared (it carries no wall-clock), but the
    // response memo is skipped: timing fields are not reproducible.
    EXPECT_TRUE(repeat.cacheHit);
    EXPECT_EQ(repeat.cacheSource, "memory");
    const CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.responseStores, 0u);
    EXPECT_EQ(stats.responseHits, 0u);
    EXPECT_EQ(stats.diskStores, 1u);

    std::filesystem::remove_all(options.cacheDir);
}

// ---------------------------------------------------------------
// Chaos: disk-tier degradation under injected I/O failures
// ---------------------------------------------------------------

TEST(ServiceChaos, DiskDegradesAfterConsecutiveIoFailures)
{
    FailpointGuard guard;
    CampaignService::Options options;
    options.cacheDir = freshCacheDir("dfi-service-chaos-cache");

    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    std::string error;
    ASSERT_TRUE(failpoint::configure("cache.read=error;cache.write=error",
                                     error))
        << error;

    CampaignService service(options);
    const ServiceResponse cold = service.execute(request);
    ASSERT_TRUE(cold.ok) << cold.error;

    // One execution makes three consecutive disk operations (memo
    // read, spill read, spill write); all failed, tripping the limit:
    // the disk tier is now off for the process lifetime, so the
    // response memo is never stored.
    CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.diskErrors, 3u);
    EXPECT_TRUE(stats.diskDisabled);
    EXPECT_EQ(stats.diskStores, 0u);

    // The memory tier keeps serving: an exact repeat is a warm LRU
    // hit with byte-identical artifacts, and the dead disk is not
    // probed again (the error count stays put).
    failpoint::reset();
    const ServiceResponse warm = service.execute(request);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.cacheSource, "memory");
    EXPECT_EQ(warm.telemetryRuns, cold.telemetryRuns);
    stats = service.cacheStats();
    EXPECT_EQ(stats.diskErrors, 3u);
    EXPECT_TRUE(stats.diskDisabled);

    std::filesystem::remove_all(options.cacheDir);
}

TEST(ServiceChaos, SuccessResetsTheFailureStreak)
{
    FailpointGuard guard;
    CampaignService::Options options;
    options.cacheDir = freshCacheDir("dfi-service-streak-cache");

    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    // Every other write fails: the streak never reaches 3 because
    // each success resets it — degradation is for *persistent*
    // failure, not for a flaky burst.
    std::string error;
    ASSERT_TRUE(
        failpoint::configure("cache.write=error@every:2", error));

    CampaignService service(options);
    // Another program, so the second request spills a preparation of
    // its own: two writes per request, alternating success and
    // failure.
    ServiceRequest other = request;
    other.config.seed = 8;
    other.config.coreName = "gem5-x86";
    ASSERT_TRUE(service.execute(request).ok);
    ASSERT_TRUE(service.execute(other).ok);

    const CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_GE(stats.diskErrors, 1u);
    EXPECT_FALSE(stats.diskDisabled);

    std::filesystem::remove_all(options.cacheDir);
}

TEST(ServiceChaos, SerialWriteFailureNeverPersistsTruncatedSpill)
{
    FailpointGuard guard;
    CampaignService::Options options;
    options.cacheDir = freshCacheDir("dfi-service-serial-cache");

    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    // Fail one archive append mid-save: the Writer latches !ok and
    // the store must abandon the file rather than digest-frame a
    // truncated stream.
    std::string error;
    ASSERT_TRUE(
        failpoint::configure("serial.write=error@nth:40", error));

    CampaignService service(options);
    ASSERT_TRUE(service.execute(request).ok);
    EXPECT_EQ(service.cacheStats().diskStores, 0u);
    EXPECT_GE(service.cacheStats().diskErrors, 1u);
    for (const auto &entry :
         std::filesystem::directory_iterator(options.cacheDir))
        EXPECT_NE(entry.path().filename().string().rfind("prep_",
                                                         0),
                  0u)
            << "truncated spill persisted: " << entry.path();

    std::filesystem::remove_all(options.cacheDir);
}

TEST(ServiceChaos, PrepAllocFailureIsRetryableAndRecovers)
{
    FailpointGuard guard;
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;

    std::string error;
    ASSERT_TRUE(
        failpoint::configure("prep.alloc=error@nth:1", error));

    CampaignService service(CampaignService::Options{});
    const ServiceResponse failed = service.execute(request);
    EXPECT_FALSE(failed.ok);
    EXPECT_TRUE(failed.retryable);
    EXPECT_NE(failed.error.find("out of memory"),
              std::string::npos);

    // The failure did not wedge the single-flight machinery: the
    // retry prepares cold and succeeds.
    const ServiceResponse retried = service.execute(request);
    ASSERT_TRUE(retried.ok) << retried.error;
}

} // namespace
