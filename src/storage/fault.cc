#include "storage/fault.hh"

#include <sstream>

#include "common/logging.hh"

namespace dfi
{

std::string
faultTypeName(FaultType type)
{
    switch (type) {
      case FaultType::Transient:
        return "transient";
      case FaultType::Intermittent:
        return "intermittent";
      case FaultType::Permanent:
        return "permanent";
    }
    panic("faultTypeName: bad FaultType %s", static_cast<int>(type));
}

bool
faultTypeFromName(const std::string &name, FaultType &out)
{
    for (const FaultType type : {FaultType::Transient,
                                 FaultType::Intermittent,
                                 FaultType::Permanent}) {
        if (faultTypeName(type) == name) {
            out = type;
            return true;
        }
    }
    return false;
}

std::string
FaultMask::toLine() const
{
    std::ostringstream os;
    os << runId << ' ' << static_cast<unsigned>(core) << ' '
       << structureName(structure) << ' ' << entry << ' ' << bit << ' '
       << faultTypeName(type) << ' ' << cycle << ' ' << duration << ' '
       << (stuckValue ? 1 : 0);
    return os.str();
}

FaultMask
FaultMask::fromLine(const std::string &line)
{
    std::istringstream is(line);
    FaultMask mask;
    unsigned core = 0;
    std::string structure, type;
    unsigned stuck = 0;
    is >> mask.runId >> core >> structure >> mask.entry >> mask.bit >>
        type >> mask.cycle >> mask.duration >> stuck;
    if (!is)
        fatal("malformed fault mask line: '%s'", line);
    mask.core = static_cast<std::uint8_t>(core);
    mask.structure = structureFromName(structure);
    if (!faultTypeFromName(type, mask.type))
        fatal("unknown fault type '%s' in mask line", type);
    mask.stuckValue = stuck != 0;
    return mask;
}

} // namespace dfi
