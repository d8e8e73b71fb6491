/**
 * @file
 * Tests for fault-mask serialization and structure naming.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "storage/fault.hh"

namespace
{

using dfi::FaultMask;
using dfi::FaultType;
using dfi::StructureId;

TEST(StructureId, NamesRoundTrip)
{
    const auto n =
        static_cast<std::size_t>(StructureId::NumStructures);
    for (std::size_t i = 0; i < n; ++i) {
        const auto id = static_cast<StructureId>(i);
        EXPECT_EQ(dfi::structureFromName(dfi::structureName(id)), id);
    }
}

TEST(StructureId, UnknownNameIsFatal)
{
    EXPECT_THROW(dfi::structureFromName("bogus"), dfi::FatalError);
}

TEST(FaultMask, LineRoundTripTransient)
{
    FaultMask m;
    m.runId = 17;
    m.core = 1;
    m.structure = StructureId::L1DData;
    m.entry = 511;
    m.bit = 301;
    m.type = FaultType::Transient;
    m.cycle = 123456789;
    EXPECT_EQ(FaultMask::fromLine(m.toLine()), m);
}

TEST(FaultMask, LineRoundTripIntermittent)
{
    FaultMask m;
    m.structure = StructureId::StoreQueue;
    m.type = FaultType::Intermittent;
    m.cycle = 1000;
    m.duration = 250;
    m.stuckValue = true;
    EXPECT_EQ(FaultMask::fromLine(m.toLine()), m);
}

TEST(FaultMask, LineRoundTripPermanent)
{
    FaultMask m;
    m.structure = StructureId::Btb;
    m.type = FaultType::Permanent;
    m.stuckValue = false;
    EXPECT_EQ(FaultMask::fromLine(m.toLine()), m);
}

TEST(FaultMask, MalformedLineIsFatal)
{
    EXPECT_THROW(FaultMask::fromLine("1 2 3"), dfi::FatalError);
    EXPECT_THROW(FaultMask::fromLine(""), dfi::FatalError);
    EXPECT_THROW(
        FaultMask::fromLine("1 0 int_regfile 0 0 nosuchtype 0 0 0"),
        dfi::FatalError);
}

TEST(FaultType, Names)
{
    EXPECT_EQ(dfi::faultTypeName(FaultType::Transient), "transient");
    EXPECT_EQ(dfi::faultTypeName(FaultType::Intermittent),
              "intermittent");
    EXPECT_EQ(dfi::faultTypeName(FaultType::Permanent), "permanent");

    // faultTypeFromName() is the inverse every front end decodes
    // through: each name round-trips, and anything else (wrong case
    // included) is refused without touching the output.
    for (const FaultType type : {FaultType::Transient,
                                 FaultType::Intermittent,
                                 FaultType::Permanent}) {
        FaultType decoded = type == FaultType::Transient
                                ? FaultType::Permanent
                                : FaultType::Transient;
        EXPECT_TRUE(
            dfi::faultTypeFromName(dfi::faultTypeName(type), decoded));
        EXPECT_EQ(decoded, type);
    }
    for (const char *bad : {"", "Transient", "PERMANENT", "stuck"}) {
        FaultType out = FaultType::Intermittent;
        EXPECT_FALSE(dfi::faultTypeFromName(bad, out)) << bad;
        EXPECT_EQ(out, FaultType::Intermittent) << bad;
    }
}

} // namespace
