/**
 * @file
 * Fault models (paper Table III) and the fault-mask record.
 *
 * A FaultMask is the unit the Fault Mask Generator produces and the
 * Injection Campaign Controller consumes: it pins down where (core,
 * structure, entry, bit), when (cycle, duration) and what (transient
 * flip / intermittent stuck / permanent stuck) to inject.  Multi-bit
 * and multi-structure experiments are expressed as a *set* of
 * FaultMasks applied in the same run (the mask file groups them by
 * run id).
 */

#ifndef DFI_STORAGE_FAULT_HH
#define DFI_STORAGE_FAULT_HH

#include <cstdint>
#include <string>

#include "storage/structure_id.hh"

namespace dfi
{

/** The three basic fault models of Table III. */
enum class FaultType : std::uint8_t
{
    Transient,    //!< single bit flip at a given cycle
    Intermittent, //!< bit stuck at a value for [cycle, cycle+duration)
    Permanent     //!< bit stuck at a value for the whole run
};

/** Human-readable fault-type name. */
std::string faultTypeName(FaultType type);

/** Inverse of faultTypeName(); false (out untouched) if unknown. */
bool faultTypeFromName(const std::string &name, FaultType &out);

/** One elementary fault to apply during a run. */
struct FaultMask
{
    std::uint32_t runId = 0;     //!< groups masks of a multi-fault run
    std::uint8_t core = 0;       //!< processor core (multicore-ready)
    StructureId structure = StructureId::IntRegFile;
    std::uint32_t entry = 0;     //!< row within the structure
    std::uint32_t bit = 0;       //!< bit within the row
    FaultType type = FaultType::Transient;
    std::uint64_t cycle = 0;     //!< injection cycle (ignored: permanent)
    std::uint64_t duration = 0;  //!< stuck duration (intermittent only)
    bool stuckValue = false;     //!< stuck-at polarity (non-transient)

    /** Serialize to one text line of the masks repository. */
    std::string toLine() const;

    /** Parse a line produced by toLine(); fatal() on malformed input. */
    static FaultMask fromLine(const std::string &line);

    bool operator==(const FaultMask &other) const = default;
};

} // namespace dfi

#endif // DFI_STORAGE_FAULT_HH
