#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <utility>

#include "bench.hh"
#include "common/json.hh"

namespace perfbench::trace
{

namespace
{

using Clock = std::chrono::steady_clock;

struct Record
{
    const char *name = "";
    std::string id;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    bool closed = false;
};

struct Derived
{
    std::string name;
    std::string id;
    double seconds = 0.0;
};

bool g_enabled = false;
std::mutex g_mu;
std::vector<Record> g_spans;   // guarded by g_mu
std::vector<Derived> g_derived; // guarded by g_mu
thread_local int t_current = -1;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Self seconds of every closed span: duration minus child cover. */
std::vector<double>
selfSeconds(const std::vector<Record> &spans)
{
    std::vector<std::vector<int>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0 && spans[i].closed)
            children[spans[i].parent].push_back(static_cast<int>(i));
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Record &span = spans[i];
        if (!span.closed)
            continue;
        // Children may run on other threads and overlap, so take the
        // union of their intervals inside the parent's.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
        for (int child : children[i]) {
            const auto lo = std::max(spans[child].start, span.start);
            const auto hi = std::min(spans[child].end, span.end);
            if (lo < hi)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        Clock::time_point reach = span.start;
        for (const auto &[lo, hi] : cover) {
            const auto from = std::max(lo, reach);
            if (hi > from) {
                covered += secondsBetween(from, hi);
                reach = hi;
            }
        }
        self[i] = secondsBetween(span.start, span.end) - covered;
    }
    return self;
}

} // namespace

void
enable(bool on)
{
    g_enabled = on;
}

bool
enabled()
{
    return g_enabled;
}

int
current()
{
    return t_current;
}

Span::Span(const char *name, std::string id)
    : Span(name, std::move(id), t_current)
{
}

Span::Span(const char *name, std::string id, int parent)
{
    if (!g_enabled)
        return;
    std::lock_guard<std::mutex> lock(g_mu);
    Record record;
    record.name = name;
    record.id = std::move(id);
    record.parent = parent;
    record.start = Clock::now();
    g_spans.push_back(std::move(record));
    index_ = static_cast<int>(g_spans.size()) - 1;
    savedCurrent_ = t_current;
    t_current = index_;
}

Span::~Span()
{
    if (index_ < 0)
        return;
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(g_mu);
    g_spans[index_].end = now;
    g_spans[index_].closed = true;
    t_current = savedCurrent_;
}

void
derived(const std::string &name, const std::string &id, double seconds)
{
    if (!g_enabled)
        return;
    std::lock_guard<std::mutex> lock(g_mu);
    g_derived.push_back(Derived{name, id, seconds});
}

std::vector<NameTotal>
totals()
{
    std::lock_guard<std::mutex> lock(g_mu);
    const std::vector<double> self = selfSeconds(g_spans);
    std::map<std::string, NameTotal> by_name;
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        if (!g_spans[i].closed)
            continue;
        NameTotal &total = by_name[g_spans[i].name];
        total.name = g_spans[i].name;
        ++total.count;
        total.totalMs +=
            1e3 * secondsBetween(g_spans[i].start, g_spans[i].end);
        total.selfMs += 1e3 * self[i];
    }
    for (const Derived &entry : g_derived) {
        NameTotal &total = by_name[entry.name];
        total.name = entry.name;
        ++total.count;
        total.totalMs += 1e3 * entry.seconds;
        total.selfMs += 1e3 * entry.seconds;
    }
    std::vector<NameTotal> out;
    for (auto &[name, total] : by_name)
        out.push_back(total);
    return out;
}

bool
write(const std::string &path, const std::string &workload,
      std::uint64_t seed)
{
    using dfi::json::Value;
    const std::vector<NameTotal> summary = totals();
    std::lock_guard<std::mutex> lock(g_mu);
    const std::vector<double> self = selfSeconds(g_spans);
    const Clock::time_point origin =
        g_spans.empty() ? Clock::now() : g_spans.front().start;
    const auto micros = [origin](Clock::time_point at) {
        return Value::number(1e6 * secondsBetween(origin, at));
    };

    Value spans = Value::array();
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        const Record &span = g_spans[i];
        if (!span.closed)
            continue;
        Value entry = Value::object();
        entry.set("i", Value::unsignedInt(i));
        entry.set("name", Value::string(span.name));
        entry.set("id", Value::string(span.id));
        entry.set("parent", Value::integer(span.parent));
        entry.set("start_us", micros(span.start));
        entry.set("end_us", micros(span.end));
        entry.set("self_us", Value::number(1e6 * self[i]));
        spans.push(std::move(entry));
    }
    Value derived_spans = Value::array();
    for (const Derived &entry : g_derived) {
        Value item = Value::object();
        item.set("name", Value::string(entry.name));
        item.set("id", Value::string(entry.id));
        item.set("self_us", Value::number(1e6 * entry.seconds));
        derived_spans.push(std::move(item));
    }
    Value names = Value::array();
    for (const NameTotal &total : summary) {
        Value item = Value::object();
        item.set("name", Value::string(total.name));
        item.set("count", Value::unsignedInt(total.count));
        item.set("total_ms", Value::number(total.totalMs));
        item.set("self_ms", Value::number(total.selfMs));
        names.push(std::move(item));
    }
    Value doc = Value::object();
    doc.set("workload", Value::string(workload));
    doc.set("seed", Value::unsignedInt(seed));
    doc.set("totals", std::move(names));
    doc.set("derived", std::move(derived_spans));
    doc.set("spans", std::move(spans));
    return writeFile(path, doc.dump() + "\n");
}

} // namespace perfbench::trace
