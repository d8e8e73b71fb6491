#include "inject/report.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "common/stats.hh"

namespace dfi::inject
{

FigureReport::FigureReport(std::string title,
                           std::vector<std::string> setups)
    : title_(std::move(title)), setups_(std::move(setups))
{
}

void
FigureReport::add(const std::string &benchmark,
                  const std::string &setup, const ClassCounts &counts)
{
    if (std::find(benchmarks_.begin(), benchmarks_.end(), benchmark) ==
        benchmarks_.end()) {
        benchmarks_.push_back(benchmark);
    }
    cells_.push_back(FigureCell{benchmark, setup, counts});
}

const FigureCell *
FigureReport::find(const std::string &benchmark,
                   const std::string &setup) const
{
    for (const FigureCell &cell : cells_) {
        if (cell.benchmark == benchmark && cell.setup == setup)
            return &cell;
    }
    return nullptr;
}

ClassCounts
FigureReport::average(const std::string &setup) const
{
    ClassCounts sum;
    for (const FigureCell &cell : cells_) {
        if (cell.setup == setup)
            sum.add(cell.counts);
    }
    return sum;
}

double
FigureReport::vulnerability(const std::string &benchmark,
                            const std::string &setup) const
{
    const FigureCell *cell = find(benchmark, setup);
    if (cell == nullptr)
        fatal("figure '%s' has no cell %s/%s", title_, benchmark,
              setup);
    return cell->counts.vulnerability();
}

std::string
FigureReport::renderTable() const
{
    TextTable table;
    std::vector<std::string> header = {"benchmark", "setup"};
    for (std::size_t c = 0; c < kNumOutcomeClasses; ++c)
        header.push_back(
            outcomeClassName(static_cast<OutcomeClass>(c)));
    header.push_back("vulnerability");
    table.header(std::move(header));

    auto add_row = [&](const std::string &bench,
                       const std::string &setup,
                       const ClassCounts &counts) {
        std::vector<std::string> row = {bench, setup};
        for (std::size_t c = 0; c < kNumOutcomeClasses; ++c) {
            row.push_back(formatFixed(
                counts.percent(static_cast<OutcomeClass>(c)), 2));
        }
        row.push_back(formatFixed(counts.vulnerability(), 2));
        table.row(std::move(row));
    };

    for (const std::string &bench : benchmarks_) {
        for (const std::string &setup : setups_) {
            const FigureCell *cell = find(bench, setup);
            if (cell != nullptr)
                add_row(bench, setup, cell->counts);
        }
    }
    for (const std::string &setup : setups_)
        add_row("AVERAGE", setup, average(setup));

    return title_ + "\n" + table.render();
}

std::string
FigureReport::renderBars(int width) const
{
    // One character per class, stacked: M . S D T C A
    static const char glyphs[kNumOutcomeClasses] = {'.', 'S', 'D',
                                                    'T', 'C', 'A'};
    std::ostringstream os;
    os << title_ << "\n";
    os << "legend: '.'=Masked S=SDC D=DUE T=Timeout C=Crash A=Assert\n";
    auto bar = [&](const ClassCounts &counts) {
        std::string s;
        int used = 0;
        for (std::size_t c = 0; c < kNumOutcomeClasses; ++c) {
            const double pct =
                counts.percent(static_cast<OutcomeClass>(c));
            int chars = static_cast<int>(
                std::lround(pct / 100.0 * width));
            chars = std::min(chars, width - used);
            s.append(static_cast<std::size_t>(chars), glyphs[c]);
            used += chars;
        }
        s.append(static_cast<std::size_t>(width - used), ' ');
        return s;
    };
    auto emit = [&](const std::string &bench) {
        for (const std::string &setup : setups_) {
            const FigureCell *cell = find(bench, setup);
            if (cell == nullptr)
                continue;
            os << "  " << bench;
            os << std::string(bench.size() < 8 ? 8 - bench.size() : 1,
                              ' ');
            os << setup
               << std::string(setup.size() < 6 ? 6 - setup.size() : 1,
                              ' ')
               << '|' << bar(cell->counts) << "| "
               << formatFixed(cell->counts.vulnerability(), 1)
               << "% vulnerable\n";
        }
    };
    for (const std::string &bench : benchmarks_)
        emit(bench);
    for (const std::string &setup : setups_) {
        const ClassCounts avg = average(setup);
        os << "  AVERAGE " << setup
           << std::string(setup.size() < 6 ? 6 - setup.size() : 1, ' ')
           << '|' << bar(avg) << "| "
           << formatFixed(avg.vulnerability(), 1) << "% vulnerable\n";
    }
    return os.str();
}

namespace
{

json::Value
countsJson(const ClassCounts &counts)
{
    json::Value cell = json::Value::object();
    json::Value classes = json::Value::object();
    for (std::size_t c = 0; c < kNumOutcomeClasses; ++c) {
        const auto cls = static_cast<OutcomeClass>(c);
        json::Value entry = json::Value::object();
        entry.set("count", json::Value::unsignedInt(counts.get(cls)));
        entry.set("percent", json::Value::number(counts.percent(cls)));
        classes.set(outcomeClassName(cls), std::move(entry));
    }
    cell.set("runs", json::Value::unsignedInt(counts.total()));
    cell.set("classes", std::move(classes));
    cell.set("vulnerability_percent",
             json::Value::number(counts.vulnerability()));
    return cell;
}

} // namespace

json::Value
FigureReport::toJson() const
{
    json::Value doc = json::Value::object();
    doc.set("kind", json::Value::string("dfi-figure"));
    doc.set("title", json::Value::string(title_));
    json::Value cells = json::Value::array();
    for (const std::string &bench : benchmarks_) {
        for (const std::string &setup : setups_) {
            const FigureCell *cell = find(bench, setup);
            if (cell == nullptr)
                continue;
            json::Value entry = json::Value::object();
            entry.set("benchmark", json::Value::string(bench));
            entry.set("setup", json::Value::string(setup));
            // Named, not iterated as a temporary: a range-for does not
            // extend the life of a temporary behind members().
            const json::Value counts = countsJson(cell->counts);
            for (const auto &[key, value] : counts.members())
                entry.set(key, value);
            cells.push(std::move(entry));
        }
    }
    doc.set("cells", std::move(cells));
    json::Value averages = json::Value::object();
    for (const std::string &setup : setups_)
        averages.set(setup, countsJson(average(setup)));
    doc.set("averages", std::move(averages));
    return doc;
}

std::string
FigureReport::renderSummary() const
{
    std::ostringstream os;
    os << title_ << " — average vulnerability per setup\n";
    std::vector<double> vulns;
    for (const std::string &setup : setups_) {
        const double v = average(setup).vulnerability();
        vulns.push_back(v);
        os << "  " << setup << ": " << formatFixed(v, 2) << "%\n";
    }
    if (vulns.size() == 3) {
        os << "  |M-x86 - G-x86|  = "
           << formatFixed(std::abs(vulns[0] - vulns[1]), 2)
           << " percentile points (tool difference)\n";
        os << "  |G-x86 - G-ARM|  = "
           << formatFixed(std::abs(vulns[1] - vulns[2]), 2)
           << " percentile points (ISA difference)\n";
    }
    return os.str();
}

} // namespace dfi::inject
