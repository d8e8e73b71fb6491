/**
 * @file
 * Environment-variable overrides for the bench harnesses and
 * examples (e.g. DFI_INJECTIONS).
 */

#ifndef DFI_COMMON_CONFIG_HH
#define DFI_COMMON_CONFIG_HH

#include <cstdint>

namespace dfi
{

/**
 * Read an environment-variable override used by the bench harnesses
 * (e.g. DFI_INJECTIONS); returns `def` when unset or malformed.
 */
std::uint64_t envUint(const char *name, std::uint64_t def);

} // namespace dfi

#endif // DFI_COMMON_CONFIG_HH
