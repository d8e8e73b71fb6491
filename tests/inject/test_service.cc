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
#include "inject/target.hh"
#include "uarch/core_config.hh"
#include "uarch/ooo_core.hh"

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
    EXPECT_EQ(smokeConfig().cacheKey(), "29df024ae1e62b1b");
}

/**
 * The prepared-state key names the `prep_` spill files on disk, so
 * it is pinned for the same reason: a silent derivation change would
 * orphan every spill.  Bump its own version tag in prepKey() instead.
 */
TEST(CacheKey, PinnedPrepKeyIsStableAcrossProcesses)
{
    EXPECT_EQ(smokeConfig().prepKey(), "56125bc41438fc68");
    // The derivation did not change: under the old default of 6
    // checkpoints the key is the old pin.
    CampaignConfig six = smokeConfig();
    six.checkpointCount = 6;
    EXPECT_EQ(six.prepKey(), "b393f958ffa93d2a");
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
 * One table drives both keys.  The rows marked as outcome fields —
 * the telemetry config echo — change cacheKey(), the response's
 * identity; the rows marked as prepare inputs — the fields
 * InjectionCampaign::prepare() reads — change prepKey(), so
 * campaigns differing in any other row share one preparation.  The
 * checkpoint knobs are prepare inputs only: they choose the store
 * runs restore from, never an outcome.
 */
TEST(CacheKey, ChangesWhenAnyCampaignRelevantFieldChanges)
{
    struct Mutation
    {
        const char *name;
        bool outcomeField;
        bool prepareInput;
        void (*mutate)(CampaignConfig &);
    };
    const std::vector<Mutation> mutations = {
        {"component", true, false,
         [](CampaignConfig &c) { c.component = "l1d"; }},
        {"benchmark", true, true,
         [](CampaignConfig &c) { c.benchmark = "sha"; }},
        {"scale", true, true, [](CampaignConfig &c) { c.scale = 2; }},
        {"core", true, true,
         [](CampaignConfig &c) { c.coreName = "gem5-arm"; }},
        {"injections", true, false,
         [](CampaignConfig &c) { c.numInjections = 25; }},
        {"confidence", true, false,
         [](CampaignConfig &c) {
             c.numInjections = 0;
             c.confidence = 0.95;
         }},
        {"margin", true, false,
         [](CampaignConfig &c) {
             c.numInjections = 0;
             c.margin = 0.05;
         }},
        {"exhaustive", true, false,
         [](CampaignConfig &c) {
             c.numInjections = 0;
             c.exhaustive = true;
         }},
        {"fault_type", true, false,
         [](CampaignConfig &c) { c.faultType = FaultType::Permanent; }},
        {"population", true, false,
         [](CampaignConfig &c) {
             c.population = Population::DoubleAdjacent;
         }},
        {"intermittent_min", true, false,
         [](CampaignConfig &c) { c.intermittentMin = 51; }},
        {"intermittent_max", true, false,
         [](CampaignConfig &c) { c.intermittentMax = 501; }},
        {"cache_scale", true, true,
         [](CampaignConfig &c) { c.cacheScale = 0.125; }},
        {"timeout_factor", true, false,
         [](CampaignConfig &c) { c.timeoutFactor = 4.0; }},
        {"early_stop_invalid_entry", true, false,
         [](CampaignConfig &c) { c.earlyStopInvalidEntry = false; }},
        {"early_stop_overwrite", true, false,
         [](CampaignConfig &c) { c.earlyStopOverwrite = false; }},
        {"seed", true, false, [](CampaignConfig &c) { c.seed = 8; }},
        {"use_checkpoints", false, true,
         [](CampaignConfig &c) { c.useCheckpoints = false; }},
        {"checkpoint_count", false, true,
         [](CampaignConfig &c) { c.checkpointCount = 7; }},
        {"checkpoint_budget", false, true,
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
        if (row.outcomeField) {
            EXPECT_NE(key, base) << "field did not affect the key: "
                                 << row.name;
            for (const std::string &prior : keys)
                EXPECT_NE(key, prior)
                    << "key collision involving field: " << row.name;
            keys.push_back(key);
        } else {
            EXPECT_EQ(key, base)
                << "an execution-strategy knob split the response: "
                << row.name;
        }

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
    EXPECT_EQ(keys.size(), 18u); // the base and 17 outcome fields
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
        "\"use_checkpoints\":true,\"checkpoints\":64,"
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
 * trace share one pass and one object, and that pass also captures
 * the restore store; another component gets its own trace from a
 * pass of its own.
 */
TEST(PreparedCampaign, TraceBuiltOncePerComponentUnderConcurrency)
{
    const std::shared_ptr<const PreparedCampaign> prep =
        InjectionCampaign(smokeConfig()).prepared();
    EXPECT_EQ(prep->passes(), 1u);
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
    EXPECT_EQ(prep->refines(), 1u);
    EXPECT_EQ(prep->passes(), 2u);

    const std::shared_ptr<const GoldenTrace> other = prep->trace("l1d");
    EXPECT_NE(other, traces[0]);
    EXPECT_EQ(prep->traceBuilds(), 2u);
    EXPECT_EQ(prep->refines(), 1u);
    EXPECT_EQ(prep->passes(), 3u);
    // One golden run, one committed-instructions table.
    EXPECT_EQ(other->committedAfter, traces[0]->committedAfter);
    EXPECT_EQ(prep->trace("int_regfile"), traces[0]);
    EXPECT_EQ(prep->passes(), 3u);
}

/** Expect two golden traces to be equal, field by field. */
void
expectSameTrace(const GoldenTrace &a, const GoldenTrace &b)
{
    EXPECT_EQ(a.terminalCycle, b.terminalCycle);
    ASSERT_NE(a.committedAfter, nullptr);
    ASSERT_NE(b.committedAfter, nullptr);
    EXPECT_EQ(*a.committedAfter, *b.committedAfter);
    ASSERT_EQ(a.structures.size(), b.structures.size());
    for (std::size_t i = 0; i < a.structures.size(); ++i) {
        const StructureTrace &x = a.structures[i];
        const StructureTrace &y = b.structures[i];
        SCOPED_TRACE(dfi::structureName(x.structure));
        EXPECT_EQ(x.structure, y.structure);
        EXPECT_EQ(x.accessBegin, y.accessBegin);
        ASSERT_EQ(x.accesses.size(), y.accesses.size());
        for (std::size_t k = 0; k < x.accesses.size(); ++k) {
            EXPECT_EQ(x.accesses[k].cycle, y.accesses[k].cycle);
            EXPECT_EQ(x.accesses[k].bitLo, y.accesses[k].bitLo);
            EXPECT_EQ(x.accesses[k].widthWrite, y.accesses[k].widthWrite);
        }
        EXPECT_EQ(x.liveAtStart, y.liveAtStart);
        EXPECT_EQ(x.changeBegin, y.changeBegin);
        EXPECT_EQ(x.changes, y.changes);
    }
}

/** The components Figs. 2-6 study. */
const std::vector<std::string> kFigureComponents = {"int_regfile", "l1d",
                                                    "l1i", "l2", "lsq"};

/**
 * One pass over the five figure components records, for each, the
 * trace a pass over that component alone records, on every core
 * model; the pass also captures the restore store.
 */
TEST(PreparedCampaign, OnePassTracesEqualSeparateTraces)
{
    for (const char *core : {"marss-x86", "gem5-x86", "gem5-arm"}) {
        SCOPED_TRACE(core);
        CampaignConfig cfg = smokeConfig();
        cfg.coreName = core;
        const std::shared_ptr<const PreparedCampaign> prep =
            InjectionCampaign(cfg).prepared();
        prep->buildTraces(kFigureComponents);
        EXPECT_EQ(prep->passes(), 2u);
        EXPECT_EQ(prep->traceBuilds(), kFigureComponents.size());
        EXPECT_EQ(prep->refines(), 1u);
        for (const std::string &component : kFigureComponents) {
            SCOPED_TRACE(component);
            uarch::OooCore probe = prep->checkpoints.sourceFor(0);
            const GoldenTrace alone = traceGoldenRun(
                probe, prep->golden, resolveComponent(component, probe));
            expectSameTrace(*prep->trace(component), alone);
        }
        EXPECT_EQ(prep->passes(), 2u);
    }
}

/**
 * Components asked to ride along are traced only by a pass that runs
 * anyway: with the asked component built, nothing runs; with it
 * missing, one pass traces it and the others, and captures the store.
 */
TEST(PreparedCampaign, TraceAheadRidesOnlyOnANeededPass)
{
    const std::shared_ptr<const PreparedCampaign> prep =
        InjectionCampaign(smokeConfig()).prepared();
    prep->buildTraces({}, kFigureComponents);
    EXPECT_EQ(prep->passes(), 1u);
    EXPECT_EQ(prep->traceBuilds(), 0u);
    EXPECT_EQ(prep->refines(), 0u);

    prep->buildTraces({"l2"}, kFigureComponents);
    EXPECT_EQ(prep->passes(), 2u);
    EXPECT_EQ(prep->traceBuilds(), kFigureComponents.size());
    EXPECT_EQ(prep->refines(), 1u);

    prep->buildTraces({"lsq"}, {"fp_regfile"});
    EXPECT_EQ(prep->passes(), 2u);
    EXPECT_EQ(prep->traceBuilds(), kFigureComponents.size());
}

/**
 * A component the core lacks traces to no structure and no
 * committed-instructions table; the next pass's traces still share
 * one table, charged once.
 */
TEST(PreparedCampaign, AComponentTheCoreLacksTracesEmpty)
{
    CampaignConfig cfg = smokeConfig();
    cfg.coreName = "gem5-x86";
    const std::shared_ptr<const PreparedCampaign> prep =
        InjectionCampaign(cfg).prepared();
    const std::shared_ptr<const GoldenTrace> none =
        prep->trace("prefetchers");
    EXPECT_TRUE(none->structures.empty());
    EXPECT_EQ(none->committedAfter, nullptr);
    EXPECT_EQ(prep->traceBytes(), none->structureBytes());

    prep->buildTraces({"l1d", "l2"});
    const std::shared_ptr<const GoldenTrace> l1d = prep->trace("l1d");
    const std::shared_ptr<const GoldenTrace> l2 = prep->trace("l2");
    ASSERT_NE(l1d->committedAfter, nullptr);
    EXPECT_EQ(l2->committedAfter, l1d->committedAfter);
    EXPECT_EQ(prep->traceBytes(),
              none->structureBytes() +
                  l1d->committedAfter->size() * sizeof(std::uint32_t) +
                  l1d->structureBytes() + l2->structureBytes());
    EXPECT_EQ(prep->passes(), 3u);
}

/**
 * A checkpoint policy that keeps only the base snapshot needs no
 * pass for its store, so a trace pass does not capture one; the
 * store refined() then builds holds the base snapshot alone.
 */
TEST(PreparedCampaign, NoStoreRidesATracePassWithoutCheckpoints)
{
    CampaignConfig cfg = smokeConfig();
    cfg.useCheckpoints = false;
    const std::shared_ptr<const PreparedCampaign> prep =
        InjectionCampaign(cfg).prepared();
    prep->trace("int_regfile");
    EXPECT_EQ(prep->passes(), 2u);
    EXPECT_EQ(prep->refines(), 0u);
    EXPECT_EQ(prep->refined()->count(), 1u);
    EXPECT_EQ(prep->refines(), 1u);
    EXPECT_EQ(prep->passes(), 2u);
}

/**
 * A caller that needs only what is built returns at once, while a
 * pass over other components is still running on the same state.
 */
TEST(PreparedCampaign, BuiltTraceReturnsWhileAPassIsInFlight)
{
    CampaignConfig cfg = smokeConfig();
    cfg.coreName = "gem5-arm";
    cfg.benchmark = "sha";
    const std::shared_ptr<const PreparedCampaign> prep =
        InjectionCampaign(cfg).prepared();
    const std::shared_ptr<const GoldenTrace> built =
        prep->trace("int_regfile");
    const std::shared_ptr<const CheckpointStore> store = prep->refined();
    ASSERT_EQ(prep->passes(), 2u);

    // Every other component, in one long pass.
    std::vector<std::string> others;
    for (const std::string &component : componentNames()) {
        if (component != "int_regfile")
            others.push_back(component);
    }
    std::thread pass([&prep, &others] { prep->buildTraces(others); });
    while (prep->passesInFlight() == 0 && prep->passes() == 2)
        std::this_thread::yield();
    EXPECT_EQ(prep->trace("int_regfile"), built);
    EXPECT_EQ(prep->refined(), store);
    // Both returned before the pass published.
    EXPECT_EQ(prep->passesInFlight(), 1u);
    EXPECT_EQ(prep->passes(), 2u);
    pass.join();
    EXPECT_EQ(prep->passesInFlight(), 0u);
    EXPECT_EQ(prep->passes(), 3u);
    EXPECT_EQ(prep->traceBuilds(), componentNames().size());
}

/**
 * Trace-ahead, single-component traces and the restore store raced on
 * one prepared state: each is built once, every caller gets the one
 * object, and no caller runs more than one pass.
 */
TEST(PreparedCampaign, OnePassRacesTraceAheadTraceAndRefined)
{
    const std::shared_ptr<const PreparedCampaign> prep =
        InjectionCampaign(smokeConfig()).prepared();
    const std::vector<std::string> &five = kFigureComponents;
    std::vector<std::shared_ptr<const GoldenTrace>> traces(five.size());
    std::vector<std::shared_ptr<const CheckpointStore>> stores(2);
    std::vector<std::thread> threads;
    threads.emplace_back(
        [&prep, &five] { prep->buildTraces({five[0]}, five); });
    for (std::size_t i = 0; i < five.size(); ++i) {
        threads.emplace_back([&prep, &traces, &five, i] {
            traces[i] = prep->trace(five[i]);
        });
    }
    for (std::size_t i = 0; i < stores.size(); ++i) {
        threads.emplace_back(
            [&prep, &stores, i] { stores[i] = prep->refined(); });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (std::size_t i = 0; i < five.size(); ++i) {
        ASSERT_NE(traces[i], nullptr);
        EXPECT_EQ(traces[i], prep->trace(five[i]));
        EXPECT_EQ(traces[i]->committedAfter, traces[0]->committedAfter);
    }
    ASSERT_NE(stores[0], nullptr);
    EXPECT_EQ(stores[1], stores[0]);
    EXPECT_EQ(prep->refined(), stores[0]);
    EXPECT_EQ(prep->traceBuilds(), five.size());
    EXPECT_EQ(prep->refines(), 1u);
    EXPECT_EQ(prep->passesInFlight(), 0u);
    // prepare()'s pass, then at least one pass and at most one per
    // component and one for the store alone, whichever order the
    // callers claimed them in.
    EXPECT_GE(prep->passes(), 2u);
    EXPECT_LE(prep->passes(), 1u + five.size() + 1u);
}

/** FNV-1a of every page the core's page walk reports, in order. */
std::uint64_t
pageDigest(const uarch::OooCore &core)
{
    hash::Fnv1a hasher;
    core.forEachPage([&hasher](const void *page, std::size_t bytes) {
        hasher.update(page, bytes);
    });
    return hasher.digest();
}

/**
 * Expect two cores to hold the same state.  Every COW-backed array,
 * the guest memory and the counters are compared directly; the state
 * outside the pages (ROB, rename maps, predictor tables, cache and
 * BTB books) through a continuation: a copy of each, ticked to the
 * end, must reach the same record.
 */
void
expectSameCore(const uarch::OooCore &a, const uarch::OooCore &b)
{
    EXPECT_EQ(a.cycle(), b.cycle());
    EXPECT_EQ(a.committedInstructions(), b.committedInstructions());
    EXPECT_EQ(a.stats().dump(), b.stats().dump());
    EXPECT_EQ(pageDigest(a), pageDigest(b));

    uarch::OooCore end_a = a;
    uarch::OooCore end_b = b;
    while (end_a.tick()) {
    }
    while (end_b.tick()) {
    }
    EXPECT_EQ(end_a.record().term, end_b.record().term);
    EXPECT_EQ(end_a.record().cycles, end_b.record().cycles);
    EXPECT_EQ(end_a.record().instructions, end_b.record().instructions);
    EXPECT_EQ(end_a.record().output, end_b.record().output);
    EXPECT_EQ(end_a.record().stats.dump(), end_b.record().stats.dump());
}

/**
 * The store runs restore from is the golden run replayed: it holds
 * exactly the snapshots a golden pass the test observes itself under
 * the same policy and run length captures, each the same state, while
 * the prepared state keeps only the base one.  That holds for a pass
 * that captures the store alone and for a pass that also traces the
 * five figure components: the taps never reach a snapshot.
 */
TEST(PreparedCampaign, RefinedSnapshotsEqualAnObservedGoldenPass)
{
    const CampaignConfig cfg = smokeConfig();
    uarch::CoreConfig core_cfg = uarch::coreConfigByName(cfg.coreName);
    uarch::scaleCaches(core_cfg, cfg.cacheScale);
    for (const bool traced : {false, true}) {
        SCOPED_TRACE(traced ? "trace pass" : "store-only pass");
        const std::shared_ptr<const PreparedCampaign> prep =
            InjectionCampaign(cfg).prepared();
        EXPECT_EQ(prep->checkpoints.count(), 1u);
        if (traced)
            prep->buildTraces(kFigureComponents);
        const std::shared_ptr<const CheckpointStore> refined =
            prep->refined();
        ASSERT_NE(refined, nullptr);
        EXPECT_EQ(prep->passes(), 2u);
        EXPECT_EQ(prep->refinedBytes(), refined->heldBytes());

        uarch::OooCore core(core_cfg, prep->image);
        CheckpointStore observed(prep->checkpoints.policy(),
                                 prep->golden.cycles);
        observed.captureBase(core);
        while (core.tick())
            observed.observe(core);
        ASSERT_EQ(core.cycle(), prep->golden.cycles);

        ASSERT_GT(observed.count(), 1u);
        ASSERT_EQ(refined->cycles(), observed.cycles());
        EXPECT_EQ(refined->snapshotBoundBytes(),
                  observed.snapshotBoundBytes());
        for (const std::uint64_t cycle : observed.cycles()) {
            // sourceFor(c + 1) is the snapshot taken at c.
            const uarch::OooCore &a = observed.sourceFor(cycle + 1);
            const uarch::OooCore &b = refined->sourceFor(cycle + 1);
            ASSERT_EQ(a.cycle(), cycle);
            ASSERT_EQ(b.cycle(), cycle);
            SCOPED_TRACE("cycle " + std::to_string(cycle));
            expectSameCore(a, b);
        }
    }
}

/**
 * A restore store is charged each page once however many snapshots
 * share it: on `micro` its 22 snapshots cost more than a base-only
 * store, but about 0.54 times 22 of them, where charging every
 * snapshot all of its pages would cost more than 22 of them.
 */
TEST(PreparedCampaign, RestoreStoreChargesSharedPagesOnce)
{
    const std::shared_ptr<const PreparedCampaign> prep =
        InjectionCampaign(smokeConfig()).prepared();
    const std::uint64_t base_only = prep->checkpoints.heldBytes();
    const std::shared_ptr<const CheckpointStore> refined =
        prep->refined();
    const std::size_t snapshots = refined->count();
    ASSERT_GT(snapshots, 1u);
    EXPECT_GT(refined->heldBytes(), base_only);
    EXPECT_LT(refined->heldBytes(), snapshots * base_only * 2 / 3);
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
 * A pass that replays the golden run for the dense store alone runs
 * only for a campaign that will restore from it: a campaign without
 * checkpoints and an unpruned dry run tick nothing past prepare().  A
 * pruned plan, even one the pruner fully classified, gets the store
 * from the pass that builds its trace, at no extra pass.
 */
TEST(PreparedCampaign, NoDenseStoreWithoutASimulatedRun)
{
    // The gem5-x86 smoke campaign prunes all 24 runs (its golden).
    CampaignConfig pruned = smokeConfig();
    pruned.coreName = "gem5-x86";
    InjectionCampaign all_pruned(pruned);
    const CampaignResult result = all_pruned.run();
    ASSERT_TRUE(result.records.empty());
    EXPECT_EQ(all_pruned.prepared()->refines(), 1u);
    EXPECT_EQ(all_pruned.prepared()->passes(), 2u);

    CampaignConfig off = smokeConfig();
    off.prune = false;
    off.useCheckpoints = false;
    InjectionCampaign no_checkpoints(off);
    ASSERT_FALSE(no_checkpoints.run().records.empty());
    EXPECT_EQ(no_checkpoints.prepared()->refines(), 0u);
    EXPECT_EQ(no_checkpoints.prepared()->passes(), 1u);

    CampaignConfig dry = smokeConfig();
    dry.prune = false;
    InjectionCampaign dry_run(dry);
    ASSERT_GT(dry_run.planSummary().executed, 0u);
    EXPECT_EQ(dry_run.prepared()->refines(), 0u);
    EXPECT_EQ(dry_run.prepared()->passes(), 1u);
}

/**
 * A campaign that simulates runs two golden passes, pruned or not:
 * prepare()'s, and one that captures the restore store (and, pruned,
 * traces the component in the same ticks).
 */
TEST(PreparedCampaign, ASimulatingCampaignRunsTwoPasses)
{
    for (const bool prune : {true, false}) {
        SCOPED_TRACE(prune ? "pruned" : "unpruned");
        CampaignConfig cfg = smokeConfig();
        cfg.prune = prune;
        InjectionCampaign campaign(cfg);
        ASSERT_FALSE(campaign.run().records.empty());
        EXPECT_EQ(campaign.prepared()->passes(), 2u);
        EXPECT_EQ(campaign.prepared()->refines(), 1u);
        EXPECT_EQ(campaign.prepared()->traceBuilds(), prune ? 1u : 0u);
    }
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
 * A served entry is charged its base snapshot at what it holds, and
 * its golden traces and its dense checkpoint store: after a pruned
 * request that simulates a run, the entry costs the preparation plus
 * both, and a budget that would hold two preparations but not a
 * preparation, its trace, its dense store and a second preparation
 * evicts the first when the second program arrives.
 */
TEST(Service, TraceBytesAreChargedToTheBudget)
{
    ServiceRequest a;
    a.config = smokeConfig();
    a.config.numInjections = 8;
    ServiceRequest b = a;
    b.config.checkpointMemBudgetMB = 255; // same shape, own prepKey
    ASSERT_NE(a.config.prepKey(), b.config.prepKey());

    // The base snapshot is charged at the bytes it holds, far below
    // the per-snapshot bound the budget cap is computed from.
    const std::shared_ptr<const PreparedCampaign> fresh =
        InjectionCampaign(a.config).prepared();
    EXPECT_EQ(fresh->baseBytes, fresh->checkpoints.heldBytes());
    EXPECT_LT(fresh->baseBytes * 4,
              fresh->checkpoints.snapshotBoundBytes());
    const std::uint64_t untraced = fresh->approxBytes();
    EXPECT_EQ(untraced, sizeof(PreparedCampaign) +
                            fresh->image.code.size() +
                            fresh->image.data.size() +
                            fresh->expectedOutput.size() +
                            fresh->golden.output.size() +
                            fresh->baseBytes);
    CampaignService sizing({});
    ASSERT_TRUE(sizing.execute(a).ok);
    const CampaignService::CacheStats sized = sizing.cacheStats();
    EXPECT_EQ(sized.traceBuilds, 1u);
    ASSERT_GT(sized.traceBytes, 0u);
    EXPECT_EQ(sized.refines, 1u);
    ASSERT_GT(sized.refinedBytes, 0u);
    EXPECT_EQ(sized.passes, 2u);
    EXPECT_EQ(sized.bytes,
              untraced + sized.traceBytes + sized.refinedBytes);

    // A sweep on the cached program reuses the trace of its
    // component, at no pass, and a pass builds one for a new
    // component.
    ServiceRequest sweep = a;
    sweep.config.seed = 8;
    ASSERT_TRUE(sizing.execute(sweep).ok);
    EXPECT_EQ(sizing.cacheStats().traceBuilds, 1u);
    EXPECT_EQ(sizing.cacheStats().passes, 2u);
    sweep.config.component = "l1d";
    ASSERT_TRUE(sizing.execute(sweep).ok);
    EXPECT_EQ(sizing.cacheStats().traceBuilds, 2u);
    EXPECT_EQ(sizing.cacheStats().passes, 3u);
    const std::uint64_t two_traced = sizing.cacheStats().traceBytes;
    EXPECT_GT(two_traced, sized.traceBytes);
    // One dense store serves every request on the program.
    EXPECT_EQ(sizing.cacheStats().refines, 1u);
    EXPECT_EQ(sizing.cacheStats().refinedBytes, sized.refinedBytes);
    EXPECT_EQ(sizing.cacheStats().bytes,
              untraced + two_traced + sized.refinedBytes);

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
    // prepare(), and one pass for each component, the first to ask
    // for it; the first pass also captures the store.
    EXPECT_EQ(stats.passes, 6u);
    EXPECT_EQ(stats.traceBuilds, 5u);
    EXPECT_EQ(stats.refines, 1u);
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

/** A run count past the cap is refused before anything is prepared. */
TEST(Service, ExecuteRefusesARunCountPastTheCapBeforePreparing)
{
    CampaignService service({});
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 4'000'000'000;
    const ServiceResponse response = service.execute(request);
    EXPECT_FALSE(response.ok);
    EXPECT_FALSE(response.retryable);
    EXPECT_NE(response.error.find("config: injections"),
              std::string::npos)
        << response.error;
    EXPECT_EQ(service.cacheStats().misses, 0u);
    EXPECT_EQ(service.cacheStats().entries, 0u);
}

/** So is a checkpoint target past its bound, even at budget 0. */
TEST(Service, ExecuteRefusesACheckpointCountPastTheCapBeforePreparing)
{
    CampaignService service({});
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.checkpointCount = 100'000;
    request.config.checkpointMemBudgetMB = 0;
    const ServiceResponse response = service.execute(request);
    EXPECT_FALSE(response.ok);
    EXPECT_FALSE(response.retryable);
    EXPECT_NE(response.error.find("config: checkpoints"),
              std::string::npos)
        << response.error;
    EXPECT_EQ(service.cacheStats().misses, 0u);
    EXPECT_EQ(service.cacheStats().entries, 0u);
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
    EXPECT_EQ(stats.get("cache").get("passes").asUint(), 0u);
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

/**
 * A spill holds the golden record and an image digest; a load
 * rebuilds the rest from the config.  On every core, the loaded state
 * re-saves to the same bytes, its base snapshot holds the prepared
 * one's state, and a campaign adopting it produces the artifacts of
 * one adopting the original.
 */
TEST(PreparedSerial, SaveLoadRoundTripReproducesCampaign)
{
    for (const char *core : {"marss-x86", "gem5-x86", "gem5-arm"}) {
        SCOPED_TRACE(core);
        CampaignConfig cfg = smokeConfig();
        cfg.coreName = core;
        cfg.numInjections = 8;
        cfg.prune = false; // every run simulates from the loaded state
        cfg.telemetryCapture = true;

        InjectionCampaign source(cfg);
        const std::shared_ptr<const PreparedCampaign> original =
            source.prepared();

        serial::Writer writer;
        savePreparedCampaign(*original, writer);
        ASSERT_TRUE(writer.ok());
        // The record and digest only: no image, output or core.
        EXPECT_LT(writer.buffer().size(), 8u << 10);

        serial::Reader reader(writer.buffer());
        std::string error;
        const std::shared_ptr<const PreparedCampaign> loaded =
            loadPreparedCampaign(cfg, reader, error);
        ASSERT_NE(loaded, nullptr) << error;

        EXPECT_EQ(loaded->expectedOutput, original->expectedOutput);
        EXPECT_EQ(loaded->golden.cycles, original->golden.cycles);
        // One snapshot, the reset core, under the config's own policy.
        EXPECT_EQ(loaded->checkpoints.cycles(),
                  std::vector<std::uint64_t>{0});
        EXPECT_EQ(loaded->checkpoints.policy().targetCount,
                  cfg.checkpointCount);
        expectSameCore(loaded->checkpoints.sourceFor(0),
                       original->checkpoints.sourceFor(0));
        serial::Writer again;
        savePreparedCampaign(*loaded, again);
        EXPECT_EQ(again.buffer(), writer.buffer());

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
        EXPECT_GT(
            live_result.aggregateStats.get("committed_instructions"), 0u);
        EXPECT_EQ(restored_result.aggregateStats.dump(),
                  live_result.aggregateStats.dump());
    }
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

/**
 * The savePreparedCampaign() archive of a copy of `prep` that `edit`
 * changed: a well-framed stream holding state prepare() never wrote.
 */
template <class Edit>
std::string
editedArchive(const PreparedCampaign &prep, Edit edit)
{
    PreparedCampaign copy;
    copy.image = prep.image;
    copy.golden = prep.golden;
    edit(copy);
    serial::Writer writer;
    savePreparedCampaign(copy, writer);
    EXPECT_TRUE(writer.ok());
    return writer.buffer();
}

/**
 * A failed pass ends its claims: on a state whose golden record is
 * one cycle too long every pass fails with a fatal() error, and each
 * later caller gets the error from a pass of its own instead of
 * waiting on a claim no pass holds.
 */
TEST(PreparedCampaign, AFailedPassLeavesItsClaimsToTheNextCaller)
{
    const CampaignConfig cfg = smokeConfig();
    const std::string archive =
        editedArchive(*InjectionCampaign(cfg).prepared(),
                      [](PreparedCampaign &p) { ++p.golden.cycles; });
    serial::Reader reader(archive);
    std::string error;
    const std::shared_ptr<const PreparedCampaign> prep =
        loadPreparedCampaign(cfg, reader, error);
    ASSERT_NE(prep, nullptr) << error;
    for (int attempt = 0; attempt < 2; ++attempt) {
        EXPECT_THROW(prep->trace("int_regfile"), dfi::FatalError);
        EXPECT_THROW(prep->refined(), dfi::FatalError);
    }
    EXPECT_TRUE(prep->bad());
    EXPECT_EQ(prep->passesInFlight(), 0u);
    EXPECT_EQ(prep->passes(), 0u);
    EXPECT_EQ(prep->traceBuilds(), 0u);
    EXPECT_EQ(prep->refines(), 0u);
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

/**
 * After a restart, a sweep of the five figure components over three
 * spilled programs, one program at a time, runs seven golden passes
 * where tracing each component in a pass of its own and capturing
 * each store in another ran eighteen.  The first program's sweep asks
 * for one new component per request, so it runs five passes; the
 * first request on each later program, a disk hit, traces all five
 * and captures the store in one pass.  A cold program swept after
 * them costs its prepare() and one pass.
 */
TEST(ServiceDisk, SweptComponentsRideOnePassPerLaterProgram)
{
    CampaignService::Options options;
    options.cacheDir = freshCacheDir("dfi-service-one-pass-cache");
    std::vector<ServiceRequest> primes;
    for (const char *core : {"marss-x86", "gem5-x86", "gem5-arm"}) {
        ServiceRequest prime;
        prime.config = smokeConfig();
        prime.config.coreName = core;
        prime.config.numInjections = 8;
        primes.push_back(prime);
    }
    {
        CampaignService primer(options);
        for (const ServiceRequest &prime : primes)
            ASSERT_TRUE(primer.execute(prime).ok);
        EXPECT_EQ(primer.cacheStats().passes, 2u * primes.size());
    }

    CampaignService restarted(options);
    ServiceRequest cold = primes[0];
    cold.config.checkpointMemBudgetMB = 255; // own prepKey, not spilled
    std::vector<ServiceRequest> programs = primes;
    programs.push_back(cold);
    const std::vector<std::uint64_t> passes = {5, 1, 1, 2};
    for (std::size_t p = 0; p < programs.size(); ++p) {
        SCOPED_TRACE(programs[p].config.coreName + " " +
                     std::to_string(p));
        const std::uint64_t before = restarted.cacheStats().passes;
        bool first = true;
        for (const std::string &component : kFigureComponents) {
            ServiceRequest sweep = programs[p];
            sweep.config.component = component;
            sweep.config.seed = 9 + p; // no response memo hit
            const ServiceResponse response = restarted.execute(sweep);
            ASSERT_TRUE(response.ok) << response.error;
            EXPECT_EQ(response.cacheSource,
                      !first ? "memory" : p < primes.size() ? "disk" : "none")
                << component;
            first = false;
        }
        EXPECT_EQ(restarted.cacheStats().passes - before, passes[p]);
    }
    const CampaignService::CacheStats stats = restarted.cacheStats();
    EXPECT_EQ(stats.passes, 9u);
    EXPECT_EQ(stats.traceBuilds, 5u * programs.size());
    EXPECT_EQ(stats.refines, programs.size());
    EXPECT_EQ(restarted.statsJson().get("cache").get("passes").asUint(),
              9u);

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

/** A prepared-state spill file's stream, its trailing digest dropped. */
std::string
readSpill(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string bytes(std::istreambuf_iterator<char>(in), {});
    EXPECT_GT(bytes.size(), sizeof(std::uint64_t));
    bytes.resize(bytes.size() - sizeof(std::uint64_t));
    return bytes;
}

/** Write `bytes` as a spill file framed by its FNV-1a digest, so the
 *  file passes the integrity check whatever the bytes hold. */
void
writeSpill(const std::filesystem::path &path, std::string bytes)
{
    const std::uint64_t digest = hash::fnv1a(bytes);
    bytes.append(reinterpret_cast<const char *>(&digest), sizeof digest);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/**
 * Rewrite the version tag at the head of a prepared-state spill file
 * and re-frame its digest, so only the tag differs.
 */
void
retagSpill(const std::filesystem::path &path, const std::string &from,
           const std::string &to)
{
    ASSERT_EQ(from.size(), to.size());
    std::string bytes = readSpill(path);
    // The stream opens with the tag: a u64 length, then the bytes.
    ASSERT_EQ(bytes.compare(sizeof(std::uint64_t), from.size(), from), 0);
    bytes.replace(sizeof(std::uint64_t), to.size(), to);
    writeSpill(path, std::move(bytes));
}

/** The response memos and the prepared-state spill in `dir`. */
std::filesystem::path
dropMemosFindSpill(const std::string &dir)
{
    std::filesystem::path spill;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("resp_", 0) == 0)
            std::filesystem::remove(entry.path());
        else if (name.rfind("prep_", 0) == 0)
            spill = entry.path();
    }
    return spill;
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
    const std::filesystem::path spill =
        dropMemosFindSpill(options.cacheDir);
    ASSERT_FALSE(spill.empty());

    // Control: re-framed with the current tag, the spill still loads.
    ASSERT_NO_FATAL_FAILURE(
        retagSpill(spill, "dfi-prep-cache-v4", "dfi-prep-cache-v4"));
    {
        CampaignService second(options);
        const ServiceResponse warm = second.execute(request);
        ASSERT_TRUE(warm.ok) << warm.error;
        EXPECT_EQ(warm.cacheSource, "disk");
        EXPECT_EQ(warm.telemetryRuns, cold.telemetryRuns);
    }
    dropMemosFindSpill(options.cacheDir);

    // A spill written under the previous format's tag is ignored and
    // the request prepares cold.
    ASSERT_NO_FATAL_FAILURE(
        retagSpill(spill, "dfi-prep-cache-v4", "dfi-prep-cache-v3"));
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

/**
 * A spill that passes its digest but holds state prepare() never
 * wrote comes back as a cold miss or an error response, never an
 * abort.  The loader refuses a golden run with a zero cycle count,
 * one recorded on another image and one whose output is not the
 * program's: each is a cold miss.  A golden run one cycle longer than
 * the program loads, fails the replay that builds the restore store,
 * and is then dropped from memory and disk, so the next request
 * prepares cold, on the same service and after a restart.  A
 * planning error on a good state drops nothing.
 */
TEST(ServiceDisk, TamperedSpillIsAColdMissOrAnErrorResponse)
{
    CampaignService::Options options;
    options.cacheDir = freshCacheDir("dfi-service-tamper-cache");
    ServiceRequest request;
    request.config = smokeConfig();
    ServiceRequest unpruned = request;
    unpruned.config.prune = false;

    CampaignService::Options uncached_options;
    uncached_options.cacheBudgetBytes = 0;
    CampaignService uncached(uncached_options);
    const ServiceResponse cold = uncached.execute(request);
    ASSERT_TRUE(cold.ok) << cold.error;
    const ServiceResponse cold_unpruned = uncached.execute(unpruned);
    ASSERT_TRUE(cold_unpruned.ok) << cold_unpruned.error;
    {
        CampaignService first(options);
        ASSERT_TRUE(first.execute(request).ok);
    }
    const std::filesystem::path spill =
        dropMemosFindSpill(options.cacheDir);
    ASSERT_FALSE(spill.empty());
    const std::string stream = readSpill(spill);
    const std::shared_ptr<const PreparedCampaign> prep =
        InjectionCampaign(request.config).prepared();
    serial::Writer archive;
    savePreparedCampaign(*prep, archive);
    // The tag and key frame the archive.
    ASSERT_EQ(stream.compare(stream.size() - archive.buffer().size(),
                             std::string::npos, archive.buffer()),
              0);
    const std::string frame =
        stream.substr(0, stream.size() - archive.buffer().size());

    struct Refused
    {
        const char *what;
        std::string archive;
    };
    const std::vector<Refused> refused = {
        {"zero-length golden run",
         editedArchive(*prep,
                       [](PreparedCampaign &p) { p.golden.cycles = 0; })},
        {"golden run of another image",
         editedArchive(*prep,
                       [](PreparedCampaign &p) { p.image.code[0] ^= 1; })},
        // The expected output is rebuilt, not read: altering it with
        // the golden output no longer makes the pair agree.
        {"golden output unlike the program's",
         editedArchive(*prep, [](PreparedCampaign &p) {
             p.golden.output.back() ^= 1;
         })},
    };
    for (const Refused &c : refused) {
        writeSpill(spill, frame + c.archive);
        CampaignService restarted(options);
        const ServiceResponse response = restarted.execute(request);
        dropMemosFindSpill(options.cacheDir);
        ASSERT_TRUE(response.ok) << c.what << ": " << response.error;
        EXPECT_EQ(response.cacheSource, "none") << c.what;
        EXPECT_EQ(response.telemetryRuns, cold.telemetryRuns) << c.what;
        EXPECT_EQ(response.telemetrySummary, cold.telemetrySummary)
            << c.what;
    }

    // Loads, then fails the replay: one error response, and the state
    // is gone from the LRU and the disk.
    const std::string long_run = editedArchive(
        *prep, [](PreparedCampaign &p) { ++p.golden.cycles; });
    auto fails_once = [&](CampaignService &service) {
        writeSpill(spill, frame + long_run);
        const ServiceResponse failed = service.execute(unpruned);
        EXPECT_FALSE(failed.ok);
        EXPECT_EQ(failed.cacheSource, "disk");
        EXPECT_NE(failed.error.find("diverged from the golden run"),
                  std::string::npos)
            << failed.error;
        EXPECT_EQ(service.cacheStats().dropped, 1u);
        EXPECT_EQ(service.cacheStats().entries, 0u);
        EXPECT_FALSE(std::filesystem::exists(spill));
    };
    auto prepares_cold = [&](CampaignService &service) {
        const ServiceResponse next = service.execute(unpruned);
        ASSERT_TRUE(next.ok) << next.error;
        EXPECT_EQ(next.cacheSource, "none");
        EXPECT_EQ(next.telemetryRuns, cold_unpruned.telemetryRuns);
        EXPECT_EQ(next.telemetrySummary, cold_unpruned.telemetrySummary);
    };
    {
        CampaignService same(options);
        fails_once(same);
        prepares_cold(same);

        // A config the plan refuses fails on a good state, which stays.
        ServiceRequest too_big = unpruned;
        too_big.config.component = "l1d";
        too_big.config.exhaustive = true;
        too_big.config.numInjections = 0;
        const ServiceResponse refused_plan = same.execute(too_big);
        EXPECT_FALSE(refused_plan.ok);
        EXPECT_NE(refused_plan.error.find("exhaustive enumeration"),
                  std::string::npos)
            << refused_plan.error;
        EXPECT_EQ(same.cacheStats().dropped, 1u);
        EXPECT_EQ(same.cacheStats().entries, 1u);
        EXPECT_TRUE(std::filesystem::exists(spill));
    }
    dropMemosFindSpill(options.cacheDir);
    {
        CampaignService failing(options);
        fails_once(failing);
    }
    CampaignService restarted(options);
    prepares_cold(restarted);

    std::filesystem::remove_all(options.cacheDir);
}

/**
 * Every atomic write has a temp file of its own: two identical
 * requests finishing together both store their response memo.  When
 * the process shared one temp name per path, the later writer
 * truncated the earlier one's file, and one rename failed as a disk
 * error.  The fsync delay holds both writes open at once.
 */
TEST(ServiceDisk, IdenticalRequestsFinishingTogetherBothStore)
{
    FailpointGuard guard;
    CampaignService::Options options;
    options.cacheDir = freshCacheDir("dfi-service-twin-cache");
    options.workers = 2;
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.numInjections = 8;
    std::string error;
    ASSERT_TRUE(failpoint::configure("cache.fsync=delay:300", error))
        << error;

    CampaignService service(options);
    ServiceResponse responses[2];
    std::vector<std::thread> threads;
    for (ServiceResponse &response : responses)
        threads.emplace_back([&service, &request, &response] {
            response = service.executeQueued(request);
        });
    for (std::thread &thread : threads)
        thread.join();
    for (const ServiceResponse &response : responses)
        EXPECT_TRUE(response.ok) << response.error;
    const CampaignService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.diskErrors, 0u);
    EXPECT_EQ(stats.responseStores, 2u);

    std::filesystem::remove_all(options.cacheDir);
}

/**
 * The checkpoint knobs choose where runs restore from, never an
 * outcome, so the response key leaves them out: a request that
 * differs only in them replays the first request's memo, and
 * executing it would have produced the same bytes.
 */
TEST(ServiceDisk, CheckpointKnobsReplayTheResponseMemo)
{
    CampaignService::Options options;
    options.cacheDir = freshCacheDir("dfi-service-knob-cache");
    ServiceRequest request;
    request.config = smokeConfig();
    request.config.prune = false; // every run restores

    CampaignService service(options);
    const ServiceResponse first = service.execute(request);
    ASSERT_TRUE(first.ok) << first.error;

    CampaignService::Options cold_options;
    cold_options.cacheBudgetBytes = 0;
    CampaignService cold(cold_options);
    const std::vector<void (*)(CampaignConfig &)> variants = {
        [](CampaignConfig &c) { c.checkpointCount = 6; },
        [](CampaignConfig &c) { c.checkpointMemBudgetMB = 1; },
        [](CampaignConfig &c) { c.useCheckpoints = false; },
    };
    for (const auto &vary : variants) {
        ServiceRequest knobs = request;
        vary(knobs.config);
        ASSERT_NE(knobs.config.prepKey(), request.config.prepKey());
        const ServiceResponse memo = service.execute(knobs);
        ASSERT_TRUE(memo.ok) << memo.error;
        EXPECT_EQ(memo.cacheSource, "response");
        EXPECT_EQ(memo.cacheKey, first.cacheKey);
        EXPECT_EQ(memo.telemetryRuns, first.telemetryRuns);
        EXPECT_EQ(memo.telemetrySummary, first.telemetrySummary);

        const ServiceResponse executed = cold.execute(knobs);
        ASSERT_TRUE(executed.ok) << executed.error;
        EXPECT_EQ(executed.cacheSource, "none");
        EXPECT_EQ(executed.telemetryRuns, first.telemetryRuns);
        EXPECT_EQ(executed.telemetrySummary, first.telemetrySummary);
    }

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
