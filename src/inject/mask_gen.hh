/**
 * @file
 * Fault Mask Generator (module 1 of Fig. 1) and the masks repository.
 *
 * Produces random fault masks — structure, entry, bit, cycle, type,
 * population — for a component/benchmark combination, covering the
 * full model space of Table III: transient, intermittent, permanent,
 * and multi-bit / multi-structure populations.  Masks serialize to a
 * plain-text repository so campaigns are replayable and shareable.
 */

#ifndef DFI_INJECT_MASK_GEN_HH
#define DFI_INJECT_MASK_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "storage/fault.hh"
#include "uarch/ooo_core.hh"

namespace dfi::inject
{

/** Spatial population of one injection run. */
enum class Population : std::uint8_t
{
    SingleBit,      //!< one bit (the paper's study)
    DoubleAdjacent, //!< two adjacent bits of one entry
    DoubleRandom,   //!< two random bits of one structure
    MultiStructure  //!< one bit in each of two structures
};

/** Short lower-case population name used in logs and telemetry. */
std::string populationName(Population population);

/** Inverse of populationName(); false (out untouched) if unknown. */
bool populationFromName(const std::string &name, Population &out);

/** Mask-generation parameters. */
struct MaskGenConfig
{
    std::string component = "int_regfile";
    dfi::FaultType type = dfi::FaultType::Transient;
    Population population = Population::SingleBit;
    std::uint64_t numRuns = 1000;
    std::uint64_t maxCycle = 0;        //!< golden run length
    std::uint64_t intermittentMin = 50, intermittentMax = 500;
    std::uint8_t core = 0;
    std::uint64_t seed = 1;
};

/** Generate the masks for a campaign (grouped by runId). */
std::vector<dfi::FaultMask> generateMasks(const MaskGenConfig &config,
                                          uarch::OooCore &core);

/** Masks repository: plain-text save/load. */
void saveMasks(const std::string &path,
               const std::vector<dfi::FaultMask> &masks);
std::vector<dfi::FaultMask> loadMasks(const std::string &path);

} // namespace dfi::inject

#endif // DFI_INJECT_MASK_GEN_HH
