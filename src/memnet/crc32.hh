/**
 * @file
 * The two CRC-32 routines behind memnet::crc32() (internal to
 * src/memnet; not installed as API).
 *
 * crc32() picks one of them once per process, from CPUID alone: the
 * carry-less-multiply fold on x86-64 CPUs with PCLMULQDQ and SSE4.1,
 * slicing-by-8 everywhere else. Both return the same value for every
 * input. The tests call each directly, so both stay checked on any
 * host that can run them.
 */

#ifndef MEMNET_MEMNET_CRC32_HH
#define MEMNET_MEMNET_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace memnet
{
namespace detail
{

/** CRC-32 by slicing-by-8: eight table lookups per 8 bytes. */
std::uint32_t crc32Sliced(const void *data, std::size_t n);

/** True when this build and CPU can run crc32Folded(). */
bool crc32FoldAvailable();

/**
 * CRC-32 by PCLMULQDQ folding (Gopal et al., Intel 2009, "Fast CRC
 * Computation for Generic Polynomials Using PCLMULQDQ") over the
 * longest 16-byte multiple prefix of an input of 64 bytes or more;
 * slicing-by-8 for the tail and for shorter inputs. Call it only when
 * crc32FoldAvailable().
 */
std::uint32_t crc32Folded(const void *data, std::size_t n);

} // namespace detail
} // namespace memnet

#endif // MEMNET_MEMNET_CRC32_HH
