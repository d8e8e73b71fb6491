#include "inject/service.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <limits>
#include <new>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "inject/mask_gen.hh"
#include "inject/plan.hh"
#include "inject/telemetry.hh"
#include "storage/fault.hh"

namespace dfi::inject
{

namespace
{

/** Typed member getters; false + error on a wrong JSON kind. */
bool
getUint(const json::Value &v, const std::string &key,
        std::uint64_t &out, std::string &error)
{
    if (v.kind() != json::Kind::Int || v.isNegative()) {
        error = "config." + key + ": expected an unsigned integer";
        return false;
    }
    out = v.asUint();
    return true;
}

/** getUint for a 32-bit field: a wider value is an error. */
bool
getUint32(const json::Value &v, const std::string &key,
          std::uint32_t &out, std::string &error)
{
    std::uint64_t wide = 0;
    if (!getUint(v, key, wide, error))
        return false;
    if (wide > std::numeric_limits<std::uint32_t>::max()) {
        error = "config." + key + ": does not fit in 32 bits";
        return false;
    }
    out = static_cast<std::uint32_t>(wide);
    return true;
}

bool
getNumber(const json::Value &v, const std::string &key, double &out,
          std::string &error)
{
    if (!v.isNumber()) {
        error = "config." + key + ": expected a number";
        return false;
    }
    out = v.asDouble();
    return true;
}

bool
getBool(const json::Value &v, const std::string &key, bool &out,
        std::string &error)
{
    if (v.kind() != json::Kind::Bool) {
        error = "config." + key + ": expected a boolean";
        return false;
    }
    out = v.asBool();
    return true;
}

bool
getString(const json::Value &v, const std::string &key,
          std::string &out, std::string &error)
{
    if (v.kind() != json::Kind::String) {
        error = "config." + key + ": expected a string";
        return false;
    }
    out = v.asString();
    return true;
}

/**
 * Decode one config member.  The key set mirrors the telemetry
 * config echo plus the execution knobs a remote client may set.
 */
bool
decodeConfigMember(const std::string &key, const json::Value &v,
                   CampaignConfig &cfg, std::string &error)
{
    std::string s;
    if (key == "component")
        return getString(v, key, cfg.component, error);
    if (key == "benchmark")
        return getString(v, key, cfg.benchmark, error);
    if (key == "scale")
        return getUint32(v, key, cfg.scale, error);
    if (key == "core")
        return getString(v, key, cfg.coreName, error);
    if (key == "injections")
        return getUint(v, key, cfg.numInjections, error);
    if (key == "confidence")
        return getNumber(v, key, cfg.confidence, error);
    if (key == "margin")
        return getNumber(v, key, cfg.margin, error);
    if (key == "exhaustive")
        return getBool(v, key, cfg.exhaustive, error);
    if (key == "fault_type") {
        if (!getString(v, key, s, error))
            return false;
        if (!faultTypeFromName(s, cfg.faultType)) {
            error = "config.fault_type: unknown fault type '" + s +
                    "'";
            return false;
        }
        return true;
    }
    if (key == "population") {
        if (!getString(v, key, s, error))
            return false;
        if (!populationFromName(s, cfg.population)) {
            error = "config.population: unknown population '" + s +
                    "'";
            return false;
        }
        return true;
    }
    if (key == "intermittent_min")
        return getUint(v, key, cfg.intermittentMin, error);
    if (key == "intermittent_max")
        return getUint(v, key, cfg.intermittentMax, error);
    if (key == "cache_scale")
        return getNumber(v, key, cfg.cacheScale, error);
    if (key == "timeout_factor")
        return getNumber(v, key, cfg.timeoutFactor, error);
    if (key == "early_stop_invalid_entry")
        return getBool(v, key, cfg.earlyStopInvalidEntry, error);
    if (key == "early_stop_overwrite")
        return getBool(v, key, cfg.earlyStopOverwrite, error);
    if (key == "seed")
        return getUint(v, key, cfg.seed, error);
    if (key == "prune")
        return getBool(v, key, cfg.prune, error);
    if (key == "jobs")
        return getUint32(v, key, cfg.jobs, error);
    if (key == "telemetry_timing")
        return getBool(v, key, cfg.telemetryTiming, error);
    if (key == "use_checkpoints")
        return getBool(v, key, cfg.useCheckpoints, error);
    if (key == "checkpoints")
        return getUint32(v, key, cfg.checkpointCount, error);
    if (key == "checkpoint_budget_mb")
        return getUint(v, key, cfg.checkpointMemBudgetMB, error);
    error = "config." + key + ": unknown key";
    return false;
}

/** The telemetry config echo plus the request-only execution knobs. */
json::Value
encodeConfig(const CampaignConfig &cfg)
{
    json::Value obj = telemetryConfigEcho(cfg);
    obj.set("prune", json::Value::boolean(cfg.prune));
    obj.set("jobs", json::Value::unsignedInt(cfg.jobs));
    obj.set("telemetry_timing",
            json::Value::boolean(cfg.telemetryTiming));
    obj.set("use_checkpoints",
            json::Value::boolean(cfg.useCheckpoints));
    obj.set("checkpoints",
            json::Value::unsignedInt(cfg.checkpointCount));
    obj.set("checkpoint_budget_mb",
            json::Value::unsignedInt(cfg.checkpointMemBudgetMB));
    return obj;
}

json::Value
encodeCounts(const ClassCounts &counts)
{
    json::Value obj = json::Value::object();
    for (std::size_t c = 0; c < kNumOutcomeClasses; ++c) {
        const auto cls = static_cast<OutcomeClass>(c);
        obj.set(outcomeClassName(cls),
                json::Value::unsignedInt(counts.get(cls)));
    }
    return obj;
}

bool
decodeCounts(const json::Value &obj, ClassCounts &counts,
             std::string &error)
{
    for (const auto &[name, value] : obj.members()) {
        OutcomeClass cls = OutcomeClass::Masked;
        if (!outcomeClassFromName(name, cls)) {
            error = "counts: unknown class '" + name + "'";
            return false;
        }
        if (value.kind() != json::Kind::Int || value.isNegative()) {
            error = "counts." + name + ": expected an unsigned "
                    "integer";
            return false;
        }
        counts.counts[static_cast<std::size_t>(cls)] = value.asUint();
    }
    return true;
}

} // namespace

bool
decodeServiceRequest(const json::Value &line, ServiceRequest &out,
                     std::string &error)
{
    if (line.kind() != json::Kind::Object) {
        error = "request: expected a JSON object";
        return false;
    }
    const json::Value *kind = line.find("kind");
    if (kind == nullptr || kind->kind() != json::Kind::String ||
        kind->asString() != kServiceRequestKind) {
        error = "request: missing kind \"dfi-request\"";
        return false;
    }
    out = ServiceRequest{};
    for (const auto &[key, value] : line.members()) {
        if (key == "kind")
            continue;
        if (key == "op") {
            if (value.kind() != json::Kind::String) {
                error = "request.op: expected a string";
                return false;
            }
            out.op = value.asString();
            continue;
        }
        if (key == "client") {
            if (value.kind() != json::Kind::String) {
                error = "request.client: expected a string";
                return false;
            }
            out.client = value.asString();
            continue;
        }
        if (key == "config") {
            if (value.kind() != json::Kind::Object) {
                error = "request.config: expected an object";
                return false;
            }
            for (const auto &[ckey, cvalue] : value.members()) {
                if (!decodeConfigMember(ckey, cvalue, out.config,
                                        error))
                    return false;
            }
            continue;
        }
        error = "request." + key + ": unknown key";
        return false;
    }
    if (out.op != "campaign" && out.op != "ping" &&
        out.op != "stats" && out.op != "shutdown") {
        error = "request.op: unknown operation '" + out.op + "'";
        return false;
    }
    return true;
}

json::Value
encodeServiceRequest(const ServiceRequest &request)
{
    json::Value line = json::Value::object();
    line.set("kind", json::Value::string(kServiceRequestKind));
    line.set("op", json::Value::string(request.op));
    line.set("client", json::Value::string(request.client));
    if (request.op == "campaign")
        line.set("config", encodeConfig(request.config));
    return line;
}

json::Value
encodeServiceProgress(std::uint64_t done, std::uint64_t total)
{
    json::Value line = json::Value::object();
    line.set("kind", json::Value::string(kServiceProgressKind));
    line.set("done", json::Value::unsignedInt(done));
    line.set("total", json::Value::unsignedInt(total));
    return line;
}

bool
decodeServiceProgress(const json::Value &line, std::uint64_t &done,
                      std::uint64_t &total)
{
    const json::Value *kind = line.find("kind");
    const json::Value *done_v = line.find("done");
    const json::Value *total_v = line.find("total");
    const auto count = [](const json::Value *v) {
        return v != nullptr && v->kind() == json::Kind::Int &&
               !v->isNegative();
    };
    if (kind == nullptr || kind->kind() != json::Kind::String ||
        kind->asString() != kServiceProgressKind || !count(done_v) ||
        !count(total_v))
        return false;
    done = done_v->asUint();
    total = total_v->asUint();
    return true;
}

json::Value
encodeServiceResponse(const ServiceResponse &response)
{
    json::Value line = json::Value::object();
    line.set("kind", json::Value::string(kServiceResponseKind));
    line.set("op", json::Value::string(response.op));
    line.set("ok", json::Value::boolean(response.ok));
    if (!response.ok) {
        line.set("error", json::Value::string(response.error));
        line.set("retryable",
                 json::Value::boolean(response.retryable));
        return line;
    }
    if (response.op == "campaign") {
        line.set("cache_key", json::Value::string(response.cacheKey));
        line.set("cache_hit", json::Value::boolean(response.cacheHit));
        line.set("cache_source",
                 json::Value::string(response.cacheSource));
        line.set("runs_total",
                 json::Value::unsignedInt(response.runsTotal));
        line.set("counts", encodeCounts(response.counts));
        line.set("vulnerability",
                 json::Value::number(response.vulnerability));
        line.set("runs_jsonl",
                 json::Value::string(response.telemetryRuns));
        line.set("summary_json",
                 json::Value::string(response.telemetrySummary));
    }
    if (!response.extra.isNull())
        line.set("data", response.extra);
    return line;
}

bool
decodeServiceResponse(const json::Value &line, ServiceResponse &out,
                      std::string &error)
{
    if (line.kind() != json::Kind::Object) {
        error = "response: expected a JSON object";
        return false;
    }
    const json::Value *kind = line.find("kind");
    if (kind == nullptr || kind->kind() != json::Kind::String ||
        kind->asString() != kServiceResponseKind) {
        error = "response: missing kind \"dfi-response\"";
        return false;
    }
    out = ServiceResponse{};
    const json::Value *ok = line.find("ok");
    if (ok == nullptr || ok->kind() != json::Kind::Bool) {
        error = "response.ok: expected a boolean";
        return false;
    }
    out.ok = ok->asBool();
    if (const json::Value *op = line.find("op");
        op != nullptr && op->kind() == json::Kind::String)
        out.op = op->asString();
    if (const json::Value *err = line.find("error");
        err != nullptr && err->kind() == json::Kind::String)
        out.error = err->asString();
    if (const json::Value *v = line.find("retryable");
        v != nullptr && v->kind() == json::Kind::Bool)
        out.retryable = v->asBool();
    if (const json::Value *v = line.find("cache_key");
        v != nullptr && v->kind() == json::Kind::String)
        out.cacheKey = v->asString();
    if (const json::Value *v = line.find("cache_hit");
        v != nullptr && v->kind() == json::Kind::Bool)
        out.cacheHit = v->asBool();
    if (const json::Value *v = line.find("cache_source");
        v != nullptr && v->kind() == json::Kind::String)
        out.cacheSource = v->asString();
    if (const json::Value *v = line.find("runs_total");
        v != nullptr && v->kind() == json::Kind::Int &&
        !v->isNegative())
        out.runsTotal = v->asUint();
    if (const json::Value *v = line.find("counts");
        v != nullptr && v->kind() == json::Kind::Object) {
        if (!decodeCounts(*v, out.counts, error))
            return false;
    }
    if (const json::Value *v = line.find("vulnerability");
        v != nullptr && v->isNumber())
        out.vulnerability = v->asDouble();
    if (const json::Value *v = line.find("runs_jsonl");
        v != nullptr && v->kind() == json::Kind::String)
        out.telemetryRuns = v->asString();
    if (const json::Value *v = line.find("summary_json");
        v != nullptr && v->kind() == json::Kind::String)
        out.telemetrySummary = v->asString();
    if (const json::Value *v = line.find("data"); v != nullptr)
        out.extra = *v;
    return true;
}

namespace
{

/** Version tags for the two disk-cache file formats. */
constexpr const char *kPrepCacheTag = "dfi-prep-cache-v4";
constexpr const char *kResponseCacheKind = "dfi-response-cache-v1";

/** True when the failpoint fires with an Error action. */
bool
chaosError(const char *site)
{
    return failpoint::check(site).kind ==
           failpoint::Action::Kind::Error;
}

/**
 * Save via a temp file of this call's own + fsync + rename + parent
 * fsync, so neither a concurrent reader or writer, a crash
 * mid-write, nor a power cut can ever publish a torn or empty file
 * under `path`:
 * rename is only atomic against bytes that are already durable, and
 * the rename itself is only durable once the directory entry is.
 * (The digest framing remains the backstop — a torn file reads as a
 * cold miss — but it should never be the first line of defence.)
 *
 * Chaos seams: `cache.write`, `cache.fsync`, `cache.rename`.
 */
bool
writeFileAtomic(const std::string &path, const std::string &payload)
{
    // The daemon's workers may write one path at once (two identical
    // requests finishing together): a temp name shared by the process
    // would let one truncate the other's bytes and fail its rename.
    static std::atomic<std::uint64_t> writes{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(writes++);
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    const auto abandon = [&](bool close_fd) {
        if (close_fd)
            ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    };

    std::size_t off = 0;
    while (off < payload.size()) {
        if (chaosError("cache.write"))
            return abandon(true);
        const ssize_t n = ::write(fd, payload.data() + off,
                                  payload.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return abandon(true);
        off += static_cast<std::size_t>(n);
    }
    if (chaosError("cache.fsync") || ::fsync(fd) != 0)
        return abandon(true);
    if (::close(fd) != 0)
        return abandon(false);
    if (chaosError("cache.rename") ||
        ::rename(tmp.c_str(), path.c_str()) != 0)
        return abandon(false);

    // Make the rename durable.  Failure here is not abandoned: the
    // new file is already correctly published to live readers, the
    // entry just might not survive a power cut.
    const std::size_t slash = path.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dirfd >= 0) {
        ::fsync(dirfd);
        ::close(dirfd);
    }
    return true;
}

enum class FileRead
{
    Ok,
    Miss,    //!< no such file
    IoError, //!< open or read failed for any other reason
};

/** Read a whole file (chaos seam: `cache.read`). */
FileRead
readFileBytes(const std::string &path, std::string &out)
{
    if (chaosError("cache.read"))
        return FileRead::IoError;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return errno == ENOENT ? FileRead::Miss
                               : FileRead::IoError;
    out.clear();
    char buf[64 << 10];
    while (true) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            ::close(fd);
            return FileRead::IoError;
        }
        if (n == 0)
            break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return FileRead::Ok;
}

} // namespace

CampaignService::CampaignService(Options options)
    : opts_(std::move(options))
{
    if (!opts_.cacheDir.empty()) {
        // Best-effort: an uncreatable directory just means every
        // disk lookup misses and every store fails quietly.
        std::error_code ec;
        std::filesystem::create_directories(opts_.cacheDir, ec);
    }
}

std::shared_ptr<const PreparedCampaign>
CampaignService::lockedLruFind(const std::string &key)
{
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
        if (it->key == key) {
            lru_.splice(lru_.begin(), lru_, it);
            return lru_.front().prep;
        }
    }
    return nullptr;
}

void
CampaignService::cacheInsert(
    const std::string &key,
    std::shared_ptr<const PreparedCampaign> prep)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const CacheEntry &entry : lru_) {
        if (entry.key == key)
            return; // racing request cached it first
    }
    CacheEntry entry;
    entry.key = key;
    entry.bytes = prep->approxBytes();
    entry.traceBytes = prep->traceBytes();
    entry.refinedBytes = prep->refinedBytes();
    entry.prep = std::move(prep);

    // An entry larger than the whole budget would evict everything
    // and still not fit; serve it uncached.
    if (entry.bytes > opts_.cacheBudgetBytes)
        return;
    cacheBytes_ += entry.bytes;
    lru_.push_front(std::move(entry));
    lockedEvictOverBudget();
}

void
CampaignService::cacheRecharge(
    const std::shared_ptr<const PreparedCampaign> &prep)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it =
        std::find_if(lru_.begin(), lru_.end(),
                     [&prep](const CacheEntry &entry) {
                         return entry.prep == prep;
                     });
    if (it == lru_.end())
        return; // never cached, or evicted meanwhile
    const std::uint64_t builds = prep->traceBuilds();
    stats_.traceBuilds += builds - it->traceBuilds;
    it->traceBuilds = builds;
    it->traceBytes = prep->traceBytes();
    const std::uint64_t refines = prep->refines();
    stats_.refines += refines - it->refines;
    it->refines = refines;
    it->refinedBytes = prep->refinedBytes();
    const std::uint64_t passes = prep->passes();
    stats_.passes += passes - it->passes;
    it->passes = passes;
    cacheBytes_ -= it->bytes;
    it->bytes = prep->approxBytes();
    if (it->bytes > opts_.cacheBudgetBytes) {
        lru_.erase(it);
        ++stats_.evictions;
    } else {
        cacheBytes_ += it->bytes;
    }
    lockedEvictOverBudget();
}

void
CampaignService::dropPrepared(
    const std::string &key,
    const std::shared_ptr<const PreparedCampaign> &prep)
{
    const bool unlinked =
        diskEnabled() && ::unlink(prepPath(key).c_str()) == 0;
    std::lock_guard<std::mutex> lock(mu_);
    // By identity: a fresh state under the same key stays.
    const auto it = std::find_if(lru_.begin(), lru_.end(),
                                 [&prep](const CacheEntry &entry) {
                                     return entry.prep == prep;
                                 });
    const bool cached = it != lru_.end();
    if (cached) {
        cacheBytes_ -= it->bytes;
        lru_.erase(it);
    }
    if (cached || unlinked)
        ++stats_.dropped;
}

void
CampaignService::lockedEvictOverBudget()
{
    while (cacheBytes_ > opts_.cacheBudgetBytes && lru_.size() > 1) {
        cacheBytes_ -= lru_.back().bytes;
        lru_.pop_back();
        ++stats_.evictions;
    }
}

void
CampaignService::publishFlight(
    const std::string &key, PrepFlight &flight,
    std::shared_ptr<const PreparedCampaign> prep,
    const std::string &error)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        flights_.erase(key);
    }
    {
        std::lock_guard<std::mutex> lock(flight.mu);
        flight.prep = std::move(prep);
        flight.error = error;
        flight.done = true;
    }
    flight.cv.notify_all();
}

std::string
CampaignService::responseKey(const std::string &cacheKey, bool prune)
{
    // cacheKey() deliberately ignores execution-strategy knobs that
    // cannot change outcomes; prune *does* change the response
    // payload (header stats, per-record prune_class), so the memo
    // key folds it back in.
    const std::string text = std::string("dfi-response-key-v1|") +
                             cacheKey +
                             (prune ? "|prune" : "|noprune");
    return hash::toHex(hash::fnv1a(text));
}

std::string
CampaignService::prepPath(const std::string &key) const
{
    return opts_.cacheDir + "/prep_" + key + ".bin";
}

std::string
CampaignService::responsePath(const std::string &key) const
{
    return opts_.cacheDir + "/resp_" + key + ".json";
}

std::shared_ptr<const PreparedCampaign>
CampaignService::loadPreparedFromDisk(const CampaignConfig &cfg,
                                      const std::string &key,
                                      bool &io_error) const
{
    io_error = false;
    std::string payload;
    const FileRead read = readFileBytes(prepPath(key), payload);
    if (read != FileRead::Ok) {
        io_error = read == FileRead::IoError;
        return nullptr;
    }
    if (payload.size() < sizeof(std::uint64_t))
        return nullptr;

    // The trailing digest frames the stream: a truncated or corrupt
    // spill file must read as a cold miss, never as wrong state.
    std::uint64_t digest = 0;
    std::memcpy(&digest,
                payload.data() + payload.size() - sizeof digest,
                sizeof digest);
    payload.resize(payload.size() - sizeof digest);
    if (hash::fnv1a(payload) != digest)
        return nullptr;

    serial::Reader reader(payload);
    std::string tag;
    std::string stored_key;
    serial::value(reader, tag);
    serial::value(reader, stored_key);
    if (!reader.ok() || tag != kPrepCacheTag || stored_key != key)
        return nullptr;
    std::string error;
    return loadPreparedCampaign(cfg, reader, error);
}

bool
CampaignService::storePreparedToDisk(
    const std::string &key, const PreparedCampaign &prep) const
{
    serial::Writer writer;
    std::string tag = kPrepCacheTag;
    serial::value(writer, tag);
    std::string stored_key = key;
    serial::value(writer, stored_key);
    savePreparedCampaign(prep, writer);
    // A failed save (serial.write) must never persist: the digest
    // would frame the truncated bytes as a valid archive.
    if (!writer.ok())
        return false;
    std::string payload = writer.buffer();
    const std::uint64_t digest = hash::fnv1a(payload);
    payload.append(reinterpret_cast<const char *>(&digest),
                   sizeof digest);
    return writeFileAtomic(prepPath(key), payload);
}

CampaignService::DiskRead
CampaignService::loadResponseFromDisk(const std::string &key,
                                      bool prune,
                                      ServiceResponse &out) const
{
    std::string text;
    const FileRead read =
        readFileBytes(responsePath(responseKey(key, prune)), text);
    if (read != FileRead::Ok)
        return read == FileRead::IoError ? DiskRead::IoError
                                         : DiskRead::Miss;
    json::Value line;
    std::string error;
    if (!json::parse(text, line, error) ||
        line.kind() != json::Kind::Object)
        return DiskRead::Miss;
    const json::Value *kind = line.find("kind");
    if (kind == nullptr || kind->kind() != json::Kind::String ||
        kind->asString() != kResponseCacheKind)
        return DiskRead::Miss;
    const json::Value *stored_key = line.find("cache_key");
    if (stored_key == nullptr ||
        stored_key->kind() != json::Kind::String ||
        stored_key->asString() != key)
        return DiskRead::Miss;
    const json::Value *stored_prune = line.find("prune");
    if (stored_prune == nullptr ||
        stored_prune->kind() != json::Kind::Bool ||
        stored_prune->asBool() != prune)
        return DiskRead::Miss;
    const json::Value *response = line.find("response");
    if (response == nullptr)
        return DiskRead::Miss;
    ServiceResponse decoded;
    if (!decodeServiceResponse(*response, decoded, error))
        return DiskRead::Miss;
    // Only replay successful executions; a memoized failure would
    // pin a transient error forever.
    if (!decoded.ok || decoded.cacheKey != key)
        return DiskRead::Miss;
    out = std::move(decoded);
    return DiskRead::Hit;
}

bool
CampaignService::storeResponseToDisk(
    const std::string &key, bool prune,
    const ServiceResponse &response) const
{
    json::Value obj = json::Value::object();
    obj.set("kind", json::Value::string(kResponseCacheKind));
    obj.set("cache_key", json::Value::string(key));
    obj.set("prune", json::Value::boolean(prune));
    obj.set("response", encodeServiceResponse(response));
    return writeFileAtomic(responsePath(responseKey(key, prune)),
                           obj.dump() + "\n");
}

bool
CampaignService::diskEnabled() const
{
    if (opts_.cacheDir.empty())
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    return !diskDisabled_;
}

void
CampaignService::noteDiskOutcome(bool ok)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (ok) {
        diskFailStreak_ = 0;
        return;
    }
    ++stats_.diskErrors;
    ++diskFailStreak_;
    if (!diskDisabled_ && diskFailStreak_ >= kDiskFailureLimit) {
        diskDisabled_ = true;
        warn("disk cache disabled after %s consecutive I/O "
             "failures; serving from memory only",
             diskFailStreak_);
    }
}

ServiceResponse
CampaignService::execute(const ServiceRequest &request,
                         const Progress &progress)
{
    ServiceResponse response;
    response.op = "campaign";

    // The request's campaign never touches service-side files:
    // artifacts are captured in memory and travel in the response.
    CampaignConfig cfg = request.config;
    cfg.telemetryOut.clear();
    cfg.resumeFrom.clear();
    cfg.shard = ShardSpec{};
    cfg.telemetryCapture = true;
    // Every served campaign spreads its runs over the whole pool; the
    // request's `jobs` starts no thread (DESIGN.md section 11).
    cfg.jobs = 0;

    const std::vector<ConfigError> errors = cfg.validate();
    if (!errors.empty()) {
        response.error = "config: " + errors[0].field + ": " +
                         errors[0].message;
        return response;
    }

    // Two identities: the response memo is keyed by the whole
    // campaign, the prepared state (LRU, flight, spill) only by what
    // prepare() reads, so every campaign on one program shares it.
    response.cacheKey = cfg.cacheKey();
    const std::string prep_key = cfg.prepKey();

    // Response memoization: an exact repeat of a completed request
    // replays the recorded response without executing.  Timing-mode
    // responses carry wall-clock fields and are never memoized.
    if (diskEnabled() && !cfg.telemetryTiming) {
        const DiskRead memo = loadResponseFromDisk(
            response.cacheKey, cfg.prune, response);
        if (memo == DiskRead::IoError)
            noteDiskOutcome(false);
        else
            noteDiskOutcome(true);
        if (memo == DiskRead::Hit) {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.responseHits;
            response.cacheHit = true;
            response.cacheSource = "response";
            return response;
        }
    }

    // With no memory budget *and* no disk directory there is nothing
    // to share, so single-flight dedup is off too (every request
    // prepares cold — the documented cacheBudgetBytes == 0 contract).
    const bool cache_enabled =
        opts_.cacheBudgetBytes > 0 || !opts_.cacheDir.empty();

    std::shared_ptr<const PreparedCampaign> prep;
    std::shared_ptr<PrepFlight> flight;
    bool leader = false;
    if (cache_enabled) {
        std::lock_guard<std::mutex> lock(mu_);
        prep = lockedLruFind(prep_key);
        if (prep != nullptr) {
            ++stats_.hits;
            response.cacheSource = "memory";
        } else if (const auto it = flights_.find(prep_key);
                   it != flights_.end()) {
            flight = it->second;
        } else {
            flight = std::make_shared<PrepFlight>();
            flights_.emplace(prep_key, flight);
            leader = true;
            ++stats_.misses;
        }
    }

    if (flight != nullptr && !leader) {
        // Another request is preparing this program right now; share
        // its golden run instead of simulating a duplicate.
        std::unique_lock<std::mutex> wait_lock(flight->mu);
        flight->cv.wait(wait_lock, [&] { return flight->done; });
        if (flight->prep == nullptr) {
            response.error = flight->error.empty()
                                 ? "prepare failed in a racing "
                                   "request"
                                 : flight->error;
            return response;
        }
        prep = flight->prep;
        response.cacheSource = "flight";
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.hits;
        ++stats_.coalesced;
    }

    bool published = false;
    try {
        // Chaos seam: a prepare-time resource failure.  Thrown (not
        // returned) so it exercises the same recovery path a real
        // allocation failure in the engine would take.
        if (failpoint::check("prep.alloc").kind ==
            failpoint::Action::Kind::Error)
            throw std::bad_alloc();

        InjectionCampaign campaign(cfg);
        if (prep == nullptr && leader && diskEnabled()) {
            bool io_error = false;
            prep = loadPreparedFromDisk(cfg, prep_key, io_error);
            noteDiskOutcome(!io_error);
            if (prep != nullptr) {
                response.cacheSource = "disk";
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.diskHits;
            }
        }
        if (prep != nullptr) {
            campaign.adoptPrepared(prep);
            response.cacheHit = true;
        }
        if (leader) {
            if (prep == nullptr) {
                prep = campaign.prepared();
                if (diskEnabled()) {
                    const bool stored =
                        storePreparedToDisk(prep_key, *prep);
                    noteDiskOutcome(stored);
                    if (stored) {
                        std::lock_guard<std::mutex> lock(mu_);
                        ++stats_.diskStores;
                    }
                }
            }
            cacheInsert(prep_key, prep);
            publishFlight(prep_key, *flight, prep, "");
            published = true;
        }
        // A pass that traces this request's component also traces
        // every component pruned requests have asked for, so once a
        // sweep's components have been asked for, each further
        // program it reaches takes one pass.  A request whose trace
        // is built runs no pass (DESIGN.md section 11).
        if (prep != nullptr && planPrunes(cfg)) {
            std::vector<std::string> asked;
            {
                std::lock_guard<std::mutex> lock(mu_);
                askedComponents_.insert(cfg.component);
                asked.assign(askedComponents_.begin(),
                             askedComponents_.end());
            }
            prep->buildTraces({cfg.component}, asked);
        }
        const CampaignResult result = campaign.run(progress);

        response.runsTotal =
            result.records.size() + result.pruned.size();
        const Parser parser;
        response.counts = result.classify(parser);
        response.vulnerability = response.counts.vulnerability();
        response.telemetryRuns = result.telemetryRuns;
        response.telemetrySummary = result.telemetrySummary;
        response.ok = true;
        if (diskEnabled() && !cfg.telemetryTiming) {
            const bool stored = storeResponseToDisk(
                response.cacheKey, cfg.prune, response);
            noteDiskOutcome(stored);
            if (stored) {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.responseStores;
            }
        }
    } catch (const dfi::FatalError &err) {
        response.ok = false;
        response.error = err.what();
    } catch (const std::bad_alloc &) {
        // Transient resource exhaustion: load may subside, so the
        // client is told it can retry (unlike a config error, which
        // a retry would only repeat).
        response.ok = false;
        response.retryable = true;
        response.error = "internal error: out of memory during "
                         "campaign preparation";
    } catch (const std::exception &err) {
        // Resource failures (bad_alloc, thread-spawn system_error)
        // must come back as a !ok response, not unwind through the
        // queue bookkeeping or a detached handler thread.
        response.ok = false;
        response.error =
            std::string("internal error: ") + err.what();
    }
    if (leader && !published) {
        // The leader failed before publishing; wake the followers
        // with the error instead of leaving them blocked forever.
        publishFlight(prep_key, *flight, nullptr, response.error);
    }
    // A state that failed a replay of its own golden run is not what
    // prepare() builds (a spill that passed its checks but lied):
    // drop it, so the next request prepares cold.  Any other state
    // may have grown a golden trace or the restore store on this
    // request; charge it to the budget.
    if (prep != nullptr && cache_enabled) {
        if (prep->bad())
            dropPrepared(prep_key, prep);
        else
            cacheRecharge(prep);
    }
    return response;
}

ServiceResponse
CampaignService::executeQueued(const ServiceRequest &request,
                               const Progress &progress)
{
    // Backpressure rejections carry the request's op and are marked
    // retryable: the client may resubmit once load subsides, unlike
    // hard errors (bad config, engine failure).
    const auto reject = [&](std::string why) {
        ServiceResponse response;
        response.op = request.op;
        response.retryable = true;
        response.error = std::move(why);
        return response;
    };

    const std::uint32_t workers =
        std::max<std::uint32_t>(1, opts_.workers);
    std::uint64_t ticket = 0;
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (draining_)
            return reject("service is draining");
        if (active_ >= opts_.queueCapacity)
            return reject("queue full (" +
                          std::to_string(opts_.queueCapacity) +
                          " requests in flight)");
        std::uint32_t &client_count = inFlight_[request.client];
        if (client_count >= opts_.perClientInFlight)
            return reject("client quota exceeded (" +
                          std::to_string(opts_.perClientInFlight) +
                          " in flight for '" + request.client +
                          "')");
        ++client_count;
        ++active_;
        ticket = nextTicket_++;
        waiting_.push_back(ticket);
        // FIFO over bounded workers: start as soon as this ticket
        // reaches the queue front *and* a worker slot is free.
        cv_.wait(lock, [&] {
            return waiting_.front() == ticket && running_ < workers;
        });
        waiting_.pop_front();
        ++running_;
    }
    // The queue front changed; later tickets may now be eligible.
    cv_.notify_all();

    // Completion bookkeeping must run even if execute() throws:
    // running_ dropping is what frees a slot for every later ticket.
    struct Completion
    {
        CampaignService &service;
        const std::string &client;

        ~Completion()
        {
            {
                std::lock_guard<std::mutex> lock(service.mu_);
                auto it = service.inFlight_.find(client);
                if (it != service.inFlight_.end() &&
                    --it->second == 0)
                    service.inFlight_.erase(it);
                --service.active_;
                --service.running_;
            }
            service.cv_.notify_all();
        }
    } completion{*this, request.client};

    return execute(request, progress);
}

void
CampaignService::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    cv_.wait(lock, [&] { return active_ == 0; });
}

CampaignService::CacheStats
CampaignService::cacheStats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lockedCacheStats();
}

CampaignService::CacheStats
CampaignService::lockedCacheStats() const
{
    CacheStats stats = stats_;
    stats.entries = lru_.size();
    stats.bytes = cacheBytes_;
    stats.diskDisabled = diskDisabled_;
    for (const CacheEntry &entry : lru_) {
        stats.traceBytes += entry.traceBytes;
        stats.refinedBytes += entry.refinedBytes;
    }
    return stats;
}

json::Value
CampaignService::statsJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    const CacheStats stats = lockedCacheStats();
    json::Value cache = json::Value::object();
    cache.set("hits", json::Value::unsignedInt(stats.hits));
    cache.set("misses", json::Value::unsignedInt(stats.misses));
    cache.set("evictions", json::Value::unsignedInt(stats.evictions));
    cache.set("entries", json::Value::unsignedInt(stats.entries));
    cache.set("bytes", json::Value::unsignedInt(stats.bytes));
    cache.set("budget_bytes",
              json::Value::unsignedInt(opts_.cacheBudgetBytes));
    cache.set("coalesced", json::Value::unsignedInt(stats.coalesced));
    cache.set("disk_hits", json::Value::unsignedInt(stats.diskHits));
    cache.set("disk_stores", json::Value::unsignedInt(stats.diskStores));
    cache.set("response_hits",
              json::Value::unsignedInt(stats.responseHits));
    cache.set("response_stores",
              json::Value::unsignedInt(stats.responseStores));
    cache.set("disk_errors", json::Value::unsignedInt(stats.diskErrors));
    cache.set("disk_disabled", json::Value::boolean(stats.diskDisabled));
    cache.set("dropped", json::Value::unsignedInt(stats.dropped));
    cache.set("trace_builds", json::Value::unsignedInt(stats.traceBuilds));
    cache.set("trace_bytes", json::Value::unsignedInt(stats.traceBytes));
    cache.set("refines", json::Value::unsignedInt(stats.refines));
    cache.set("refined_bytes",
              json::Value::unsignedInt(stats.refinedBytes));
    cache.set("passes", json::Value::unsignedInt(stats.passes));
    json::Value queue = json::Value::object();
    queue.set("active", json::Value::unsignedInt(active_));
    queue.set("running", json::Value::unsignedInt(running_));
    queue.set("workers",
              json::Value::unsignedInt(
                  std::max<std::uint32_t>(1, opts_.workers)));
    queue.set("capacity",
              json::Value::unsignedInt(opts_.queueCapacity));
    queue.set("per_client_quota",
              json::Value::unsignedInt(opts_.perClientInFlight));
    json::Value stats_json = json::Value::object();
    stats_json.set("cache", std::move(cache));
    stats_json.set("queue", std::move(queue));
    return stats_json;
}

} // namespace dfi::inject
