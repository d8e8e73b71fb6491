#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "common/hash.hh"
#include "common/rng.hh"

namespace perfbench
{

void
Outcome::fail(const std::string &what)
{
    ++failed;
    failures.push_back(what);
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

void
Outcome::check(bool ok, const std::string &what)
{
    if (!ok)
        fail(what);
}

void
Outcome::e2e(const std::string &name, double value,
             const std::string &unit)
{
    endToEnd.push_back(Metric{name, value, unit});
}

void
Outcome::layer(const std::string &name, double value,
               const std::string &unit)
{
    layers.push_back(Metric{name, value, unit});
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double value : values)
        sum += value;
    return sum / static_cast<double>(values.size());
}

double
guardedPercentile(Outcome &out, const std::string &name,
                  std::vector<double> values, double p)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    std::size_t beyond = 0;
    double value = 0.0;
    if (n > 0) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(p * static_cast<double>(n)));
        value = values[std::clamp<std::size_t>(rank, 1, n) - 1];
        beyond = static_cast<std::size_t>(
            values.end() -
            std::upper_bound(values.begin(), values.end(), value));
    }
    std::fprintf(stderr, "  %-34s %12.4f  (n=%zu, %zu beyond)\n",
                 name.c_str(), value, n, beyond);
    if (beyond < 10) {
        out.fail("percentile guard: " + name + " has " +
                 std::to_string(beyond) + " of " + std::to_string(n) +
                 " samples beyond it (needs 10)");
        return 0.0;
    }
    return value;
}

void
reportLatencies(Outcome &out, const std::vector<double> &sweep,
                const std::vector<double> &repeat)
{
    out.e2e("sweep_p50_ms", guardedPercentile(out, "sweep_p50_ms", sweep, 0.5),
            "ms");
    out.e2e("sweep_p90_ms", guardedPercentile(out, "sweep_p90_ms", sweep, 0.9),
            "ms");
    out.e2e("repeat_p50_ms",
            guardedPercentile(out, "repeat_p50_ms", repeat, 0.5), "ms");
}

void
reportRepeatTail(Outcome &out, const std::vector<double> &repeat)
{
    out.layer("repeat_p90_ms",
              guardedPercentile(out, "repeat_p90_ms", repeat, 0.9), "ms");
}

double
peakRssMiB(const std::string &pid)
{
    std::ifstream status("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

bool
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    return static_cast<bool>(out);
}

void
makeDirs(const std::string &path)
{
    std::filesystem::create_directories(path);
}

void
removeTree(const std::string &path)
{
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<std::size_t>
shuffledOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    dfi::Rng rng(seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBounded(i)]);
    return order;
}

std::string
timingFree(const std::string &artifact)
{
    static const char *const kTimingKeys[] = {
        "\"sim_cycles\":",       "\"restore_us\":",
        "\"wall_us\":",          "\"jobs\":",
        "\"sim_cycles_total\":", "\"restore_total_us\":",
        "\"wall_total_us\":"};
    std::string out = artifact;
    for (const char *key : kTimingKeys) {
        const std::size_t key_len = std::strlen(key);
        for (std::size_t at = out.find(key); at != std::string::npos;
             at = out.find(key, at + key_len)) {
            std::size_t digits = at + key_len;
            while (digits < out.size() && out[digits] == ' ')
                ++digits;
            std::size_t end = digits;
            while (end < out.size() &&
                   std::isdigit(static_cast<unsigned char>(out[end])))
                ++end;
            out.replace(digits, end - digits, "0");
        }
    }
    return out;
}

std::string
digestOf(const std::string &bytes)
{
    dfi::hash::Fnv1a hasher;
    hasher.update(std::string_view(bytes));
    return hasher.hexDigest();
}

void
checkRunRecord(Outcome &out, const Options &options)
{
    using dfi::json::Value;
    char seconds[32];
    std::snprintf(seconds, sizeof seconds, "%g", options.seconds);
    const std::string dir =
        options.stateDir + "/records/" + options.sourceDigest;
    const std::string path = dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + "-s" +
                             seconds + ".json";

    Value mix = Value::object();
    for (const auto &[name, count] : out.mix)
        mix.set(name, Value::unsignedInt(count));
    Value artifacts = Value::object();
    for (const auto &[name, digest] : out.artifacts)
        artifacts.set(name, Value::string(digest));

    const std::string stored = readFile(path);
    if (stored.empty()) {
        // Only a correct run sets the reference: a failed one has lost
        // requests or artifacts, and every later run would differ.
        if (out.failed != 0)
            return;
        Value doc = Value::object();
        doc.set("mix", std::move(mix));
        doc.set("artifacts", std::move(artifacts));
        makeDirs(dir);
        writeFile(path, doc.dump() + "\n");
        return;
    }
    Value doc;
    std::string error;
    if (!dfi::json::parse(stored, doc, error) ||
        doc.find("mix") == nullptr ||
        doc.find("artifacts") == nullptr) {
        out.fail("run record " + path + " is unreadable: " + error);
        return;
    }
    if (doc.get("mix").dump() != mix.dump())
        out.fail("mix guard: counts " + mix.dump() +
                 " differ from an earlier run at this seed: " +
                 doc.get("mix").dump());
    for (const auto &[name, digest] : out.artifacts) {
        const Value *earlier = doc.get("artifacts").find(name);
        if (earlier != nullptr && earlier->asString() != digest)
            out.fail("artifacts '" + name +
                     "' differ from an earlier run at this seed");
    }
}

} // namespace perfbench
