#include "memnet/crc32.hh"

#include <array>
#include <bit>
#include <cstring>

#include "memnet/journal.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MEMNET_CRC32_FOLD 1
#include <immintrin.h>
#endif

namespace memnet
{

namespace
{

/**
 * Slicing-by-8 tables for the reflected IEEE 802.3 / zlib polynomial:
 * kCrcTables[0] is the classic bytewise table, kCrcTables[k][b] is the
 * CRC of byte b followed by k zero bytes.
 */
constexpr auto kCrcTables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}();

/** Run the pre-inverted register @p crc over @p n bytes at @p p. */
std::uint32_t
slicedUpdate(std::uint32_t crc, const unsigned char *p, std::size_t n)
{
    const auto &t = kCrcTables;
    if constexpr (std::endian::native == std::endian::little) {
        for (; n >= 8; n -= 8, p += 8) {
            std::uint32_t lo = 0, hi = 0;
            std::memcpy(&lo, p, 4);
            std::memcpy(&hi, p + 4, 4);
            lo ^= crc;
            crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
                  t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
                  t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
                  t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
        }
    }
    for (; n > 0; --n, ++p)
        crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
    return crc;
}

#ifdef MEMNET_CRC32_FOLD

#define MEMNET_CLMUL __attribute__((target("pclmul,sse4.1")))

MEMNET_CLMUL inline __m128i
loadBlock(const unsigned char *at)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(at));
}

/** Carry lane @p x on by the distance @p k encodes, then add @p data. */
MEMNET_CLMUL inline __m128i
fold(__m128i x, __m128i k, __m128i data)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         data);
}

/**
 * Fold @p n bytes at @p p (n >= 64, a multiple of 16) into the
 * pre-inverted register @p crc. The constants are x^k mod P for the
 * reflected polynomial P, bit-reflected, as the paper tabulates them.
 */
MEMNET_CLMUL std::uint32_t
foldUpdate(std::uint32_t crc, const unsigned char *p, std::size_t n)
{
    // k1k2 carries a lane 64 bytes on, k3k4 16 bytes on.
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    // k5 takes 64 bits to 32; poly holds P and the Barrett quotient mu.
    const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

    __m128i x1 = _mm_xor_si128(loadBlock(p),
                               _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x2 = loadBlock(p + 16);
    __m128i x3 = loadBlock(p + 32);
    __m128i x4 = loadBlock(p + 48);
    for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
        x1 = fold(x1, k1k2, loadBlock(p));
        x2 = fold(x2, k1k2, loadBlock(p + 16));
        x3 = fold(x3, k1k2, loadBlock(p + 32));
        x4 = fold(x4, k1k2, loadBlock(p + 48));
    }
    // Four lanes into one, then any 16-byte blocks left.
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    for (; n >= 16; p += 16, n -= 16)
        x1 = fold(x1, k3k4, loadBlock(p));

    // 128 bits to 64.
    x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
    x2 = _mm_srli_si128(x1, 4);
    x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5k0, 0x00);
    x1 = _mm_xor_si128(x1, x2);

    // Barrett reduction, 64 bits to 32.
    x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
    x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

#endif // MEMNET_CRC32_FOLD

} // namespace

namespace detail
{

std::uint32_t
crc32Sliced(const void *data, std::size_t n)
{
    return slicedUpdate(0xFFFFFFFFu, static_cast<const unsigned char *>(data),
                        n) ^
           0xFFFFFFFFu;
}

bool
crc32FoldAvailable()
{
#ifdef MEMNET_CRC32_FOLD
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
#else
    return false;
#endif
}

std::uint32_t
crc32Folded(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t crc = 0xFFFFFFFFu;
#ifdef MEMNET_CRC32_FOLD
    if (n >= 64) {
        const std::size_t blocks = n & ~std::size_t{15};
        crc = foldUpdate(crc, p, blocks);
        p += blocks;
        n -= blocks;
    }
#endif
    return slicedUpdate(crc, p, n) ^ 0xFFFFFFFFu;
}

} // namespace detail

std::uint32_t
crc32(const void *data, std::size_t n)
{
    static const bool fold = detail::crc32FoldAvailable();
    return fold ? detail::crc32Folded(data, n) : detail::crc32Sliced(data, n);
}

} // namespace memnet
