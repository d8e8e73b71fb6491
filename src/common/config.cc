#include "common/config.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace dfi
{

std::uint64_t
envUint(const char *name, std::uint64_t def)
{
    const char *raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0')
        return def;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(raw, &end, 10);
    if (end == raw || *end != '\0') {
        warn("ignoring malformed %s='%s'", name, raw);
        return def;
    }
    return value;
}

} // namespace dfi
