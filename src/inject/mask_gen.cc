#include "inject/mask_gen.hh"

#include <fstream>

#include "common/logging.hh"
#include "inject/target.hh"

namespace dfi::inject
{

using dfi::FaultMask;
using dfi::FaultType;
using dfi::StructureId;

std::string
populationName(Population population)
{
    switch (population) {
      case Population::SingleBit:
        return "single";
      case Population::DoubleAdjacent:
        return "double-adjacent";
      case Population::DoubleRandom:
        return "double-random";
      case Population::MultiStructure:
        return "multi-structure";
    }
    panic("populationName: bad population %s",
          static_cast<int>(population));
}

bool
populationFromName(const std::string &name, Population &out)
{
    for (const Population population :
         {Population::SingleBit, Population::DoubleAdjacent,
          Population::DoubleRandom, Population::MultiStructure}) {
        if (populationName(population) == name) {
            out = population;
            return true;
        }
    }
    return false;
}

namespace
{

/** Pick a (structure, entry, bit) uniformly over the component bits. */
void
pickLocation(dfi::Rng &rng, const std::vector<StructureId> &structs,
             uarch::OooCore &core, FaultMask &mask)
{
    std::uint64_t total = 0;
    for (StructureId id : structs)
        total += core.arrayFor(id)->totalBits();
    std::uint64_t pick = rng.nextBounded(total);
    for (StructureId id : structs) {
        dfi::FaultableArray *array = core.arrayFor(id);
        if (pick < array->totalBits()) {
            mask.structure = id;
            mask.entry =
                static_cast<std::uint32_t>(pick / array->bitsPerEntry());
            mask.bit =
                static_cast<std::uint32_t>(pick % array->bitsPerEntry());
            return;
        }
        pick -= array->totalBits();
    }
    panic("pickLocation: weighted pick out of range");
}

void
fillTiming(dfi::Rng &rng, const MaskGenConfig &cfg, FaultMask &mask)
{
    mask.type = cfg.type;
    switch (cfg.type) {
      case FaultType::Transient:
        mask.cycle = rng.nextRange(1, cfg.maxCycle);
        break;
      case FaultType::Intermittent:
        mask.cycle = rng.nextRange(1, cfg.maxCycle);
        mask.duration =
            rng.nextRange(cfg.intermittentMin, cfg.intermittentMax);
        mask.stuckValue = rng.nextBool();
        break;
      case FaultType::Permanent:
        mask.cycle = 0;
        mask.stuckValue = rng.nextBool();
        break;
    }
}

} // namespace

std::vector<FaultMask>
generateMasks(const MaskGenConfig &cfg, uarch::OooCore &core)
{
    if (cfg.maxCycle == 0 && cfg.type != FaultType::Permanent)
        fatal("mask generation needs the golden run length (maxCycle)");
    const std::vector<StructureId> structs =
        resolveComponent(cfg.component, core);
    if (structs.empty())
        fatal("component '%s' has no injectable structures on core "
              "'%s'",
              cfg.component, core.config().name);

    dfi::Rng rng(cfg.seed);
    std::vector<FaultMask> masks;
    masks.reserve(cfg.numRuns);

    for (std::uint64_t run = 0; run < cfg.numRuns; ++run) {
        FaultMask first;
        first.runId = static_cast<std::uint32_t>(run);
        first.core = cfg.core;
        pickLocation(rng, structs, core, first);
        fillTiming(rng, cfg, first);
        masks.push_back(first);

        switch (cfg.population) {
          case Population::SingleBit:
            break;
          case Population::DoubleAdjacent: {
            FaultMask second = first;
            const auto bits = core.arrayFor(first.structure)
                                  ->bitsPerEntry();
            second.bit = (first.bit + 1) % bits;
            masks.push_back(second);
            break;
          }
          case Population::DoubleRandom: {
            FaultMask second = first;
            pickLocation(rng, {first.structure}, core, second);
            fillTiming(rng, cfg, second);
            second.runId = first.runId;
            masks.push_back(second);
            break;
          }
          case Population::MultiStructure: {
            FaultMask second = first;
            pickLocation(rng, structs, core, second);
            fillTiming(rng, cfg, second);
            second.runId = first.runId;
            masks.push_back(second);
            break;
          }
        }
    }
    return masks;
}

void
saveMasks(const std::string &path,
          const std::vector<FaultMask> &masks)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open masks repository '%s' for writing", path);
    for (const FaultMask &mask : masks)
        out << mask.toLine() << "\n";
}

std::vector<FaultMask>
loadMasks(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open masks repository '%s'", path);
    std::vector<FaultMask> masks;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            masks.push_back(FaultMask::fromLine(line));
    }
    return masks;
}

} // namespace dfi::inject
