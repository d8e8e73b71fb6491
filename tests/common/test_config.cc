/**
 * @file
 * Tests for the environment-variable overrides (common/config.hh).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/config.hh"

namespace
{

TEST(Config, EnvUintDefaultsAndParses)
{
    ::unsetenv("DFI_TEST_ENV_UINT");
    EXPECT_EQ(dfi::envUint("DFI_TEST_ENV_UINT", 5), 5u);
    ::setenv("DFI_TEST_ENV_UINT", "123", 1);
    EXPECT_EQ(dfi::envUint("DFI_TEST_ENV_UINT", 5), 123u);
    ::setenv("DFI_TEST_ENV_UINT", "junk", 1);
    EXPECT_EQ(dfi::envUint("DFI_TEST_ENV_UINT", 5), 5u);
    ::unsetenv("DFI_TEST_ENV_UINT");
}

} // namespace
