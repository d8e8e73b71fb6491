/**
 * @file
 * Span recorder for the traced benchmark run.
 *
 * The harness opens a Span around every public call it makes into a
 * layer (compile, prepare, plan, run, restore, serialize, one served
 * request, ...).  Spans carry a name, start, end, parent and the id
 * of the cell or request they belong to; they stay in memory and are
 * written out once, when the run ends.  With tracing off a Span is a
 * branch and nothing else, so untraced runs measure the same code.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace
{

void enable(bool on);
bool enabled();

/** Index of the innermost open span on this thread, or -1. */
int current();

/** RAII span; inert while tracing is off. */
class Span
{
  public:
    Span(const char *name, std::string id = {});
    /** Open under an explicit parent (spans started on new threads). */
    Span(const char *name, std::string id, int parent);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int index_ = -1;
    int savedCurrent_ = -1;
};

/**
 * Record a self time the harness summed or derived instead of observed
 * as one span: many short calls added up, or the remainder of a
 * covering call once the lower calls, timed apart on the same inputs,
 * are taken out.
 */
void derived(const std::string &name, const std::string &id,
             double seconds);

/** Per-name totals of observed self time and derived time, in ms. */
struct NameTotal
{
    std::string name;
    std::uint64_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
};
std::vector<NameTotal> totals();

/** Write every span plus the per-name totals as one JSON document. */
bool write(const std::string &path, const std::string &workload,
           std::uint64_t seed);

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_HH
