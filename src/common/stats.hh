/**
 * @file
 * Lightweight runtime-statistics package.
 *
 * The per-benchmark statistics the paper uses to explain divergences
 * between the tools (issued vs. committed loads, cache
 * hit/miss/replacement counts, branch mispredictions, ...) are plain
 * event counters.  Each microarchitectural component owns its own as
 * an enum-indexed Counters array, so counting an event on the
 * simulator's hot path is one array increment.  A StatSet is the
 * named view of those counters: the core builds it on demand
 * (OooCore::stats(), and once more when a run finishes) and it is
 * what run records, campaign aggregates and the `bench_runtime_stats`
 * harness see.
 *
 * Both types are value-semantic (copyable), so they participate in
 * simulator checkpointing for free.
 */

#ifndef DFI_COMMON_STATS_HH
#define DFI_COMMON_STATS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"

namespace dfi
{

/** A named bag of 64-bit counters with formatted dumping. */
class StatSet
{
  public:
    /** Add delta (default 1) to counter `name`, creating it at zero. */
    void
    inc(const std::string &name, std::uint64_t delta = 1)
    {
        counters_[name] += delta;
    }

    /** Set counter `name` to an absolute value. */
    void
    set(const std::string &name, std::uint64_t value)
    {
        counters_[name] = value;
    }

    /** Value of counter `name`; zero if never touched. */
    std::uint64_t get(const std::string &name) const;

    /**
     * Add every counter of `other` into this set (campaign-wide
     * aggregation across runs).  Addition is commutative, so merging
     * per-run sets in any order yields the same aggregate.
     */
    void merge(const StatSet &other);

    /** True if the counter was ever touched. */
    bool has(const std::string &name) const;

    /** Ratio get(num)/get(den); zero when the denominator is zero. */
    double ratio(const std::string &num, const std::string &den) const;

    /** All counters, sorted by name. */
    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters_;
    }

    /** Reset every counter to zero (keeps names). */
    void clear();

    /** Multi-line "name = value" dump, sorted by name. */
    std::string dump(const std::string &prefix = "") const;

    /** Serialize all counters (cache spill). */
    template <class Ar> void serializeState(Ar &ar);

  private:
    std::map<std::string, std::uint64_t> counters_;
};

/**
 * Enum-indexed event counters owned by one simulator component.
 *
 * Counting is an array increment: no name is built and no map is
 * walked.  Names exist only in the StatSet view that named() builds.
 *
 * @tparam Id enum class that indexes the counters; its last
 *            enumerator must be `Count`
 */
template <class Id>
class Counters
{
  public:
    static constexpr std::size_t kSize =
        static_cast<std::size_t>(Id::Count);

    void inc(Id id) { ++values_[static_cast<std::size_t>(id)]; }

    std::uint64_t
    get(Id id) const
    {
        return values_[static_cast<std::size_t>(id)];
    }

    /** The nonzero counters, named `prefix + names[id]`. */
    StatSet
    named(const std::string &prefix,
          const char *const (&names)[kSize]) const
    {
        StatSet out;
        for (std::size_t i = 0; i < kSize; ++i) {
            if (values_[i] != 0)
                out.set(prefix + names[i], values_[i]);
        }
        return out;
    }

  private:
    std::array<std::uint64_t, kSize> values_{};
};

/**
 * Fixed-width text table builder used by the bench harnesses to print
 * paper-style tables and stacked-bar figures on the terminal.
 */
class TextTable
{
  public:
    /** Set the header row. */
    void header(std::vector<std::string> cells);

    /** Append a data row. */
    void row(std::vector<std::string> cells);

    /** Render with aligned columns. */
    std::string render() const;

    /**
     * The table as JSON ({"header": [...], "rows": [[...], ...]}),
     * the machine-readable twin every table bench writes next to its
     * text output.
     */
    json::Value toJson() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed decimals (helper for reports). */
std::string formatFixed(double value, int decimals);

} // namespace dfi

#endif // DFI_COMMON_STATS_HH
