#include "inject/telemetry.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "common/failpoint.hh"
#include "common/logging.hh"
#include "common/version.hh"
#include "inject/mask_gen.hh"

namespace dfi::inject
{

namespace
{

/** Append one drift line, eliding after a cap. */
class DriftLog
{
  public:
    explicit DriftLog(std::string &report) : report_(report) {}

    void
    add(const std::string &line)
    {
        ++drifts_;
        if (drifts_ <= kMaxLines) {
            report_ += line;
            report_ += '\n';
        } else if (drifts_ == kMaxLines + 1) {
            report_ += "... (further drift elided)\n";
        }
    }

    bool any() const { return drifts_ > 0; }

  private:
    static constexpr std::uint64_t kMaxLines = 20;
    std::string &report_;
    std::uint64_t drifts_ = 0;
};

std::string
kindName(json::Kind kind)
{
    switch (kind) {
      case json::Kind::Null:
        return "null";
      case json::Kind::Bool:
        return "bool";
      case json::Kind::Int:
      case json::Kind::Double:
        return "number";
      case json::Kind::String:
        return "string";
      case json::Kind::Array:
        return "array";
      case json::Kind::Object:
        return "object";
    }
    return "?";
}

std::string
scalarText(const json::Value &v)
{
    return v.dump();
}

/** Recursive exact comparison, skipping volatile members. */
void
compareValues(const json::Value &a, const json::Value &b,
              const std::string &path, DriftLog &log)
{
    const bool numbers = a.isNumber() && b.isNumber();
    if (!numbers && a.kind() != b.kind()) {
        log.add(path + ": kind " + kindName(a.kind()) +
                " != " + kindName(b.kind()));
        return;
    }
    switch (a.kind()) {
      case json::Kind::Object: {
        for (const auto &[key, value] : a.members()) {
            if (isVolatileTelemetryKey(key))
                continue;
            const json::Value *other = b.find(key);
            if (other == nullptr) {
                log.add(path + "." + key + ": only in first file");
                continue;
            }
            compareValues(value, *other, path + "." + key, log);
        }
        for (const auto &[key, value] : b.members()) {
            if (!isVolatileTelemetryKey(key) && !a.has(key))
                log.add(path + "." + key + ": only in second file");
        }
        return;
      }
      case json::Kind::Array: {
        if (a.size() != b.size()) {
            log.add(path + ": length " + std::to_string(a.size()) +
                    " != " + std::to_string(b.size()));
            return;
        }
        for (std::size_t i = 0; i < a.size(); ++i) {
            compareValues(a.at(i), b.at(i),
                          path + "[" + std::to_string(i) + "]", log);
        }
        return;
      }
      default:
        if (scalarText(a) != scalarText(b))
            log.add(path + ": " + scalarText(a) +
                    " != " + scalarText(b));
        return;
    }
}

/** Per-class percentage map of one artifact (tolerance mode). */
std::map<std::string, double>
classPercentages(const TelemetryFile &file)
{
    std::map<std::string, double> percents;
    if (file.kind == kTelemetrySummaryKind) {
        const json::Value *classes = file.header.find("classes");
        if (classes == nullptr)
            return percents;
        for (const auto &[name, cell] : classes->members()) {
            const json::Value *pct = cell.find("percent");
            if (pct != nullptr)
                percents[name] = pct->asDouble();
        }
        return percents;
    }
    std::map<std::string, std::uint64_t> counts;
    for (const TelemetryRecord &record : file.records)
        ++counts[record.outcome];
    const auto total = static_cast<double>(file.records.size());
    for (const auto &[name, count] : counts) {
        percents[name] =
            total > 0 ? 100.0 * static_cast<double>(count) / total
                      : 0.0;
    }
    return percents;
}

bool
decodeUint(const json::Value &line, const char *key,
           std::uint64_t &out, std::string &error)
{
    const json::Value *v = line.find(key);
    if (v == nullptr || v->kind() != json::Kind::Int ||
        v->isNegative()) {
        error = std::string("record missing numeric field '") + key +
                "'";
        return false;
    }
    out = v->asUint();
    return true;
}

bool
decodeString(const json::Value &line, const char *key,
             std::string &out, std::string &error)
{
    const json::Value *v = line.find(key);
    if (v == nullptr || v->kind() != json::Kind::String) {
        error = std::string("record missing string field '") + key +
                "'";
        return false;
    }
    out = v->asString();
    return true;
}

/** Optional numeric field: absent (older schema) decodes as zero. */
void
decodeOptUint(const json::Value &line, const char *key,
              std::uint64_t &out)
{
    const json::Value *v = line.find(key);
    if (v != nullptr && v->kind() == json::Kind::Int &&
        !v->isNegative())
        out = v->asUint();
}

bool
decodeRecord(const json::Value &line, TelemetryRecord &out,
             std::string &error)
{
    if (!(decodeUint(line, "run", out.runId, error) &&
          decodeUint(line, "seed", out.seed, error) &&
          decodeString(line, "component", out.component, error) &&
          decodeString(line, "structure", out.structure, error) &&
          decodeUint(line, "entry", out.entry, error) &&
          decodeUint(line, "bit", out.bit, error) &&
          decodeString(line, "fault_type", out.faultType, error) &&
          decodeUint(line, "cycle", out.injectionCycle, error) &&
          decodeUint(line, "masks", out.maskCount, error) &&
          decodeString(line, "outcome", out.outcome, error) &&
          decodeString(line, "subclass", out.subclass, error) &&
          decodeUint(line, "instructions", out.instructions,
                     error) &&
          decodeUint(line, "cycles", out.cycles, error))) {
        return false;
    }
    // Volatile fields are tolerated missing so older artifacts and
    // hand-trimmed streams still parse.
    decodeOptUint(line, "sim_cycles", out.simCycles);
    decodeOptUint(line, "restore_us", out.restoreMicros);
    decodeOptUint(line, "wall_us", out.wallMicros);
    decodeOptUint(line, "jobs", out.jobs);
    decodeOptUint(line, "prune_class", out.pruneClass);
    return true;
}

} // namespace

bool
isVolatileTelemetryKey(const std::string &key)
{
    return key == "wall_us" || key == "jobs" || key == "volatile" ||
           key == "wall_total_us" || key == "sim_cycles" ||
           key == "restore_us" || key == "sim_cycles_total" ||
           key == "restore_total_us" || key == "prune" ||
           key == "prune_class" || key == "generator";
}

const std::vector<double> &
telemetryHistogramEdges()
{
    // Multiples of the golden run length; early-stopped runs land in
    // the small buckets, timeouts in the last bounded ones.
    static const std::vector<double> edges = {0.125, 0.25, 0.5, 1.0,
                                              2.0,   3.0};
    return edges;
}

json::Value
TelemetryRecord::toJson() const
{
    json::Value line = json::Value::object();
    line.set("run", json::Value::unsignedInt(runId));
    line.set("seed", json::Value::unsignedInt(seed));
    line.set("component", json::Value::string(component));
    line.set("structure", json::Value::string(structure));
    line.set("entry", json::Value::unsignedInt(entry));
    line.set("bit", json::Value::unsignedInt(bit));
    line.set("fault_type", json::Value::string(faultType));
    line.set("cycle", json::Value::unsignedInt(injectionCycle));
    line.set("masks", json::Value::unsignedInt(maskCount));
    line.set("outcome", json::Value::string(outcome));
    line.set("subclass", json::Value::string(subclass));
    line.set("instructions", json::Value::unsignedInt(instructions));
    line.set("cycles", json::Value::unsignedInt(cycles));
    line.set("sim_cycles", json::Value::unsignedInt(simCycles));
    line.set("restore_us", json::Value::unsignedInt(restoreMicros));
    line.set("wall_us", json::Value::unsignedInt(wallMicros));
    line.set("jobs", json::Value::unsignedInt(jobs));
    line.set("prune_class", json::Value::unsignedInt(pruneClass));
    return line;
}

json::Value
telemetryConfigEcho(const CampaignConfig &config)
{
    json::Value echo = json::Value::object();
    echo.set("component", json::Value::string(config.component));
    echo.set("benchmark", json::Value::string(config.benchmark));
    echo.set("scale", json::Value::unsignedInt(config.scale));
    echo.set("core", json::Value::string(config.coreName));
    echo.set("injections",
             json::Value::unsignedInt(config.numInjections));
    echo.set("confidence", json::Value::number(config.confidence));
    echo.set("margin", json::Value::number(config.margin));
    // Outcome-relevant: exhaustive enumeration plans a different run
    // set than sampling (the `prune` strategy knob, by contrast, is
    // volatile — it never changes classifications).
    echo.set("exhaustive", json::Value::boolean(config.exhaustive));
    echo.set("fault_type",
             json::Value::string(faultTypeName(config.faultType)));
    echo.set("population",
             json::Value::string(populationName(config.population)));
    echo.set("intermittent_min",
             json::Value::unsignedInt(config.intermittentMin));
    echo.set("intermittent_max",
             json::Value::unsignedInt(config.intermittentMax));
    echo.set("cache_scale", json::Value::number(config.cacheScale));
    echo.set("timeout_factor",
             json::Value::number(config.timeoutFactor));
    echo.set("early_stop_invalid_entry",
             json::Value::boolean(config.earlyStopInvalidEntry));
    echo.set("early_stop_overwrite",
             json::Value::boolean(config.earlyStopOverwrite));
    // Execution-strategy knobs (checkpointing, jobs, budget, shard,
    // resume) are deliberately absent: they cannot change outcomes,
    // and leaving them out keeps artifacts byte-identical across
    // strategies — shard streams share the unsharded header.
    echo.set("seed", json::Value::unsignedInt(config.seed));
    return echo;
}

json::Value
telemetryGoldenEcho(const syskit::RunRecord &golden)
{
    json::Value echo = json::Value::object();
    echo.set("cycles", json::Value::unsignedInt(golden.cycles));
    echo.set("instructions",
             json::Value::unsignedInt(golden.instructions));
    echo.set("output_bytes",
             json::Value::unsignedInt(golden.output.size()));
    return echo;
}

namespace
{

json::Value
pruneEcho(const PruneStats &prune)
{
    json::Value echo = json::Value::object();
    echo.set("pruned_static",
             json::Value::unsignedInt(prune.prunedStatic));
    echo.set("pruned_equiv",
             json::Value::unsignedInt(prune.prunedEquiv));
    echo.set("simulated", json::Value::unsignedInt(prune.simulated));
    return echo;
}

} // namespace

json::Value
telemetryRunsHeader(const CampaignConfig &config,
                    const syskit::RunRecord &golden,
                    std::uint64_t total_runs, const PruneStats &prune)
{
    json::Value header = json::Value::object();
    header.set("kind", json::Value::string(kTelemetryRunsKind));
    header.set("schema",
               json::Value::unsignedInt(kTelemetrySchemaVersion));
    // Volatile build echo: names the build for bug reports without
    // participating in exact comparison.
    header.set("generator", json::Value::string(versionString()));
    header.set("config", telemetryConfigEcho(config));
    header.set("golden", telemetryGoldenEcho(golden));
    header.set("runs_total", json::Value::unsignedInt(total_runs));
    // Volatile strategy tallies: campaign-wide (identical in every
    // shard header), so merge's header-equality invariant holds.
    header.set("prune", pruneEcho(prune));
    return header;
}

SummaryAccumulator::SummaryAccumulator(std::uint64_t golden_cycles)
    : goldenCycles_(golden_cycles),
      histogram_(telemetryHistogramEdges().size() + 1, 0)
{
}

void
SummaryAccumulator::add(const TelemetryRecord &record)
{
    OutcomeClass cls = OutcomeClass::Masked;
    if (!outcomeClassFromName(record.outcome, cls))
        fatal("telemetry: unknown outcome class '%s' in run %s",
              record.outcome, record.runId);
    counts_.add(cls);
    totalSimCycles_ += record.simCycles;
    totalRestoreMicros_ += record.restoreMicros;
    totalWallMicros_ += record.wallMicros;

    // Bucket the deterministic run length (not the strategy-dependent
    // simulated cycles): early-stopped runs land in the small
    // buckets, timeouts in the last bounded ones.
    const auto &edges = telemetryHistogramEdges();
    const auto golden_cycles = static_cast<double>(goldenCycles_);
    std::size_t bucket = edges.size();
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (static_cast<double>(record.cycles) <=
            edges[i] * golden_cycles) {
            bucket = i;
            break;
        }
    }
    ++histogram_[bucket];
}

std::string
SummaryAccumulator::summaryJson(const json::Value &config_echo,
                                const json::Value &golden_echo,
                                std::uint64_t jobs_echo,
                                const PruneStats *prune) const
{
    json::Value doc = json::Value::object();
    doc.set("kind", json::Value::string(kTelemetrySummaryKind));
    doc.set("schema",
            json::Value::unsignedInt(kTelemetrySchemaVersion));
    doc.set("config", config_echo);
    doc.set("golden", golden_echo);
    doc.set("runs", json::Value::unsignedInt(counts_.total()));

    json::Value classes = json::Value::object();
    for (std::size_t c = 0; c < kNumOutcomeClasses; ++c) {
        const auto cls = static_cast<OutcomeClass>(c);
        json::Value cell = json::Value::object();
        cell.set("count", json::Value::unsignedInt(counts_.get(cls)));
        cell.set("percent", json::Value::number(counts_.percent(cls)));
        classes.set(outcomeClassName(cls), std::move(cell));
    }
    doc.set("classes", std::move(classes));
    doc.set("vulnerability_percent",
            json::Value::number(counts_.vulnerability()));

    json::Value lengths = json::Value::object();
    json::Value buckets = json::Value::array();
    const auto &edges = telemetryHistogramEdges();
    for (std::size_t i = 0; i < histogram_.size(); ++i) {
        json::Value bucket = json::Value::object();
        bucket.set("le_golden_x",
                   i < edges.size() ? json::Value::number(edges[i])
                                    : json::Value::null());
        bucket.set("count", json::Value::unsignedInt(histogram_[i]));
        buckets.push(std::move(bucket));
    }
    lengths.set("histogram", std::move(buckets));
    doc.set("run_cycles", std::move(lengths));

    // Volatile (a strategy tally): pruned and unpruned summaries of
    // the same campaign stay exact-equal.
    if (prune != nullptr)
        doc.set("prune", pruneEcho(*prune));

    json::Value volatile_echo = json::Value::object();
    volatile_echo.set("jobs", json::Value::unsignedInt(jobs_echo));
    volatile_echo.set("sim_cycles_total",
                      json::Value::unsignedInt(totalSimCycles_));
    volatile_echo.set("restore_total_us",
                      json::Value::unsignedInt(totalRestoreMicros_));
    volatile_echo.set("wall_total_us",
                      json::Value::unsignedInt(totalWallMicros_));
    doc.set("volatile", std::move(volatile_echo));
    return doc.dumpPretty();
}

TelemetryWriter::TelemetryWriter(const CampaignConfig &config,
                                 const syskit::RunRecord &golden,
                                 std::uint64_t total_runs,
                                 std::uint32_t jobs,
                                 const PruneStats &prune,
                                 TelemetryOptions options)
    : config_(config), golden_(golden), jobs_(jobs), prune_(prune),
      options_(options), acc_(golden.cycles)
{
    lines_ =
        telemetryRunsHeader(config_, golden_, total_runs, prune_)
            .dump();
    lines_ += '\n';
}

void
TelemetryWriter::setPruned(const std::vector<PrunedRun> &pruned)
{
    if (anyEmitted_)
        panic("telemetry: setPruned after records were emitted");
    prunedQueue_ = pruned;
    std::sort(prunedQueue_.begin(), prunedQueue_.end(),
              [](const PrunedRun &a, const PrunedRun &b) {
                  return a.runId < b.runId;
              });
    nextPruned_ = 0;
    for (const PrunedRun &run : prunedQueue_) {
        if (run.verdict == SiteVerdict::EquivMember)
            reps_.try_emplace(run.repRunId);
    }
}

void
TelemetryWriter::harvestRep(std::uint64_t run_id,
                            const TelemetryRecord &record)
{
    const auto it = reps_.find(run_id);
    if (it == reps_.end())
        return;
    it->second.outcome = record.outcome;
    it->second.subclass = record.subclass;
    it->second.instructions = record.instructions;
    it->second.cycles = record.cycles;
    it->second.known = true;
}

void
TelemetryWriter::emitPruned(const PrunedRun &pruned)
{
    if (anyEmitted_ && pruned.runId <= lastRunId_)
        panic("telemetry: pruned run %s out of order (last was %s)",
              pruned.runId, lastRunId_);

    TelemetryRecord record;
    record.runId = pruned.runId;
    record.seed = config_.seed;
    record.component = config_.component;
    record.structure = structureName(pruned.mask.structure);
    record.entry = pruned.mask.entry;
    record.bit = pruned.mask.bit;
    record.faultType = faultTypeName(pruned.mask.type);
    record.injectionCycle = pruned.mask.cycle;
    record.maskCount = 1;
    record.pruneClass = pruned.pruneClass;
    // Volatile measurements (sim_cycles, restore_us, wall_us, jobs)
    // stay zero: nothing was simulated.

    switch (pruned.verdict) {
      case SiteVerdict::InvalidEntry:
      case SiteVerdict::DeadOverwrite:
      case SiteVerdict::GoldenRun: {
        // Exactly the record the dispatcher would have produced,
        // classified by the same parser.
        const syskit::RunRecord stands_for =
            staticRecord(pruned, golden_);
        const Classification cls = parser_.classify(golden_, stands_for);
        record.outcome = outcomeClassName(cls.cls);
        record.subclass = cls.subclass;
        record.instructions = stands_for.instructions;
        record.cycles = stands_for.cycles;
        break;
      }
      case SiteVerdict::EquivMember: {
        const auto it = reps_.find(pruned.repRunId);
        if (it == reps_.end() || !it->second.known)
            panic("telemetry: pruned run %s emitted before its "
                  "representative %s",
                  pruned.runId, pruned.repRunId);
        record.outcome = it->second.outcome;
        record.subclass = it->second.subclass;
        record.instructions = it->second.instructions;
        record.cycles = it->second.cycles;
        break;
      }
      case SiteVerdict::Simulate:
        panic("telemetry: Simulate verdict in the pruned queue "
              "(run %s)",
              pruned.runId);
    }

    anyEmitted_ = true;
    lastRunId_ = pruned.runId;
    acc_.add(record);
    appendLine(record.toJson().dump());
}

void
TelemetryWriter::flushPrunedBelow(std::uint64_t run_id)
{
    while (nextPruned_ < prunedQueue_.size() &&
           prunedQueue_[nextPruned_].runId < run_id)
        emitPruned(prunedQueue_[nextPruned_++]);
}

void
TelemetryWriter::flushAllPruned()
{
    while (nextPruned_ < prunedQueue_.size())
        emitPruned(prunedQueue_[nextPruned_++]);
}

void
TelemetryWriter::streamTo(const std::string &base)
{
    if (stream_.is_open())
        panic("telemetry: streamTo called twice");
    if (anyEmitted_)
        panic("telemetry: streamTo after records were emitted");
    streamPath_ = base + ".jsonl";
    stream_.open(streamPath_, std::ios::binary | std::ios::trunc);
    if (!stream_)
        fatal("telemetry: cannot write '%s'", streamPath_);
    // The header goes out (and is flushed) immediately, so even a
    // campaign killed before its first commit leaves a valid,
    // resumable stream.
    if (failpoint::check("telemetry.write").kind ==
        failpoint::Action::Kind::Error)
        stream_.setstate(std::ios::badbit);
    stream_ << lines_;
    stream_.flush();
    if (!stream_)
        fatal("telemetry: write to '%s' failed", streamPath_);
}

void
TelemetryWriter::appendLine(const std::string &line)
{
    lines_ += line;
    lines_ += '\n';
    if (stream_.is_open()) {
        // The telemetry.write failpoint models the disk filling up
        // mid-stream; flipping badbit drives the *real* error branch
        // below rather than a parallel injected one.
        if (failpoint::check("telemetry.write").kind ==
            failpoint::Action::Kind::Error)
            stream_.setstate(std::ios::badbit);
        // One flush per record bounds a kill's damage to a single
        // torn line, which the tolerant reader drops on resume.
        stream_ << line << '\n';
        stream_.flush();
        if (!stream_)
            fatal("telemetry: write to '%s' failed", streamPath_);
    }
}

void
TelemetryWriter::replay(const TelemetryRecord &record)
{
    flushPrunedBelow(record.runId);
    if (anyEmitted_ && record.runId <= lastRunId_)
        fatal("telemetry: resume record %s out of order (last was "
              "%s) — corrupt or reordered resume stream",
              record.runId, lastRunId_);
    anyEmitted_ = true;
    lastRunId_ = record.runId;
    harvestRep(record.runId, record);
    acc_.add(record); // fatal() on an unknown outcome class
    appendLine(record.toJson().dump());
}

void
TelemetryWriter::commit(const RunTask &task, const TaskResult &result)
{
    flushPrunedBelow(task.runId);
    if (anyEmitted_ && task.runId <= lastRunId_)
        panic("telemetry: commit of run %s out of order (last was %s)",
              task.runId, lastRunId_);
    anyEmitted_ = true;
    lastRunId_ = task.runId;

    const Classification classification =
        parser_.classify(golden_, result.record);

    TelemetryRecord record;
    record.runId = task.runId;
    record.seed = config_.seed;
    record.component = config_.component;
    if (!task.masks.empty()) {
        record.structure = structureName(task.masks[0].structure);
        record.entry = task.masks[0].entry;
        record.bit = task.masks[0].bit;
        record.faultType = faultTypeName(task.masks[0].type);
    }
    record.injectionCycle = task.masks.empty() ? 0 : task.firstCycle;
    record.maskCount = task.masks.size();
    record.pruneClass = task.pruneClass;
    record.outcome = outcomeClassName(classification.cls);
    record.subclass = classification.subclass;
    record.instructions = result.record.instructions;
    record.cycles = result.record.cycles;
    if (options_.captureTiming) {
        // Execution-strategy measurements: which cycles were really
        // simulated (and how long the restore took) depends on the
        // checkpoint layout, so they are volatile like wall-clock.
        record.simCycles = result.simulatedCycles;
        record.restoreMicros = result.restoreMicros;
        record.wallMicros = result.wallMicros;
        record.jobs = jobs_;
    }

    harvestRep(task.runId, record);
    acc_.add(record);
    appendLine(record.toJson().dump());
}

std::string
TelemetryWriter::summaryJson() const
{
    return acc_.summaryJson(telemetryConfigEcho(config_),
                            telemetryGoldenEcho(golden_),
                            options_.captureTiming ? jobs_ : 0,
                            &prune_);
}

void
TelemetryWriter::writeFiles(const std::string &base)
{
    // Pruned runs above the last committed runId are still queued.
    flushAllPruned();

    const std::string runs_path = base + ".jsonl";
    if (!stream_.is_open() || runs_path != streamPath_)
        panic("telemetry: writeFiles('%s') without streaming there",
              runs_path);
    stream_.close();
    const std::string summary_path = base + ".summary.json";
    std::ofstream summary(summary_path, std::ios::binary);
    if (failpoint::check("telemetry.flush").kind ==
        failpoint::Action::Kind::Error)
        summary.setstate(std::ios::badbit);
    summary << summaryJson();
    if (!summary)
        fatal("telemetry: cannot write '%s'", summary_path);
}

bool
parseTelemetry(const std::string &text, TelemetryFile &out,
               std::string &error)
{
    out = TelemetryFile{};

    // A run stream is JSONL: its first line is a complete header
    // object.  A summary is one pretty-printed document, whose first
    // line alone never parses.
    std::istringstream stream(text);
    std::string first_line;
    std::getline(stream, first_line);
    json::Value header;
    std::string line_error;
    if (json::parse(first_line, header, line_error) &&
        header.kind() == json::Kind::Object) {
        const json::Value *kind = header.find("kind");
        if (kind == nullptr ||
            kind->kind() != json::Kind::String) {
            error = "header line has no 'kind'";
            return false;
        }
        if (kind->asString() != kTelemetryRunsKind) {
            error = "unexpected artifact kind '" + kind->asString() +
                    "'";
            return false;
        }
        const json::Value *schema = header.find("schema");
        if (schema == nullptr ||
            schema->kind() != json::Kind::Int ||
            schema->isNegative()) {
            error = "header line has no 'schema'";
            return false;
        }
        if (schema->asUint() > kTelemetrySchemaVersion) {
            error = "unsupported schema version " +
                    std::to_string(schema->asUint());
            return false;
        }
        out.kind = kTelemetryRunsKind;
        out.header = std::move(header);
        std::string line;
        std::uint64_t line_number = 1;
        while (std::getline(stream, line)) {
            ++line_number;
            if (line.empty())
                continue;
            json::Value parsed;
            TelemetryRecord record;
            const bool ok =
                json::parse(line, parsed, line_error) &&
                decodeRecord(parsed, record, line_error);
            if (!ok) {
                // A killed writer tears at most the *final* line of
                // the stream (one flushed write per record).  Only
                // that signature is tolerated — if any complete line
                // follows, the damage is mid-file corruption and must
                // stay a hard error.
                std::string rest;
                bool more = false;
                while (std::getline(stream, rest)) {
                    if (!rest.empty()) {
                        more = true;
                        break;
                    }
                }
                if (!more) {
                    out.warning = "dropped torn trailing line " +
                                  std::to_string(line_number) + " (" +
                                  line_error + ")";
                    break;
                }
                error = "line " + std::to_string(line_number) + ": " +
                        line_error;
                return false;
            }
            out.records.push_back(std::move(record));
        }
        return true;
    }

    json::Value doc;
    if (!json::parse(text, doc, error))
        return false;
    if (doc.kind() != json::Kind::Object || !doc.has("kind") ||
        doc.get("kind").kind() != json::Kind::String ||
        doc.get("kind").asString() != kTelemetrySummaryKind) {
        error = "not a telemetry artifact";
        return false;
    }
    const json::Value *schema = doc.find("schema");
    if (schema == nullptr || schema->kind() != json::Kind::Int ||
        schema->isNegative()) {
        error = "summary has no 'schema'";
        return false;
    }
    if (schema->asUint() > kTelemetrySchemaVersion) {
        error = "unsupported schema version " +
                std::to_string(schema->asUint());
        return false;
    }
    out.kind = kTelemetrySummaryKind;
    out.header = std::move(doc);
    return true;
}

bool
readTelemetryFile(const std::string &path, TelemetryFile &out,
                  std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!parseTelemetry(buffer.str(), out, error)) {
        error = path + ": " + error;
        return false;
    }
    return true;
}

bool
writeTelemetryArtifacts(const std::string &base,
                        const std::string &runsJsonl,
                        const std::string &summaryJson,
                        std::string &error)
{
    const auto write = [&error](const std::string &path,
                                const std::string &content) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << content;
        out.flush();
        if (!out)
            error = "cannot write '" + path + "'";
        return static_cast<bool>(out);
    };
    return write(base + ".jsonl", runsJsonl) &&
           write(base + ".summary.json", summaryJson);
}

DiffOutcome
diffTelemetry(const TelemetryFile &a, const TelemetryFile &b,
              const DiffOptions &options, std::string &report)
{
    if (a.kind != b.kind) {
        report += "artifact kinds differ: " + a.kind + " vs " +
                  b.kind + "\n";
        return DiffOutcome::Malformed;
    }

    DriftLog log(report);
    if (options.exact) {
        compareValues(a.header, b.header,
                      a.kind == kTelemetrySummaryKind ? "summary"
                                                      : "header",
                      log);
        if (a.kind == kTelemetryRunsKind) {
            if (a.records.size() != b.records.size()) {
                log.add("run count " +
                        std::to_string(a.records.size()) + " != " +
                        std::to_string(b.records.size()));
            } else {
                for (std::size_t i = 0; i < a.records.size(); ++i) {
                    compareValues(a.records[i].toJson(),
                                  b.records[i].toJson(),
                                  "run[" + std::to_string(i) + "]",
                                  log);
                }
            }
        }
        return log.any() ? DiffOutcome::Drift : DiffOutcome::Equal;
    }

    const auto pa = classPercentages(a);
    const auto pb = classPercentages(b);
    auto percent_of = [](const std::map<std::string, double> &map,
                         const std::string &key) {
        const auto it = map.find(key);
        return it == map.end() ? 0.0 : it->second;
    };
    std::map<std::string, bool> classes;
    for (const auto &[name, value] : pa)
        classes[name] = true;
    for (const auto &[name, value] : pb)
        classes[name] = true;
    for (const auto &[name, present] : classes) {
        const double va = percent_of(pa, name);
        const double vb = percent_of(pb, name);
        if (std::abs(va - vb) > options.tolerancePercent) {
            log.add("class " + name + ": " + json::formatNumber(va) +
                    "% vs " + json::formatNumber(vb) +
                    "% (tolerance " +
                    json::formatNumber(options.tolerancePercent) +
                    ")");
        }
    }
    return log.any() ? DiffOutcome::Drift : DiffOutcome::Equal;
}

DiffOutcome
diffTelemetryFiles(const std::string &pathA, const std::string &pathB,
                   const DiffOptions &options, std::string &report)
{
    TelemetryFile a, b;
    std::string error;
    if (!readTelemetryFile(pathA, a, error)) {
        report += error + "\n";
        return DiffOutcome::Malformed;
    }
    if (!readTelemetryFile(pathB, b, error)) {
        report += error + "\n";
        return DiffOutcome::Malformed;
    }
    // Torn-tail drops are diagnostics, not drift by themselves — but
    // a dropped record will surface as a run-count mismatch below.
    if (!a.warning.empty())
        report += pathA + ": warning: " + a.warning + "\n";
    if (!b.warning.empty())
        report += pathB + ": warning: " + b.warning + "\n";
    return diffTelemetry(a, b, options, report);
}

} // namespace dfi::inject
