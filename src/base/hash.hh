/**
 * @file
 * FNV-1a (64-bit) — the one hash behind every bit-identity
 * fingerprint (spanFingerprint, the fleet fingerprints,
 * serveFingerprint). The helpers fold values into a running state
 * that starts at kFnvOffset.
 */

#ifndef MOBIUS_BASE_HASH_HH
#define MOBIUS_BASE_HASH_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace mobius
{

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** Fold @p n raw bytes into @p h. */
inline void
fnvBytes(std::uint64_t &h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

/** Fold @p v as eight little-endian bytes. */
inline void
fnv64(std::uint64_t &h, std::uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= kFnvPrime;
    }
}

/**
 * Fold the bit pattern of @p v, not its value: a fingerprint's job
 * is byte-identity, so -0.0 vs 0.0 or NaN payloads must differ.
 */
inline void
fnvDouble(std::uint64_t &h, double v)
{
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    fnv64(h, bits);
}

/** Fold @p s as its length, then its bytes. */
inline void
fnvString(std::uint64_t &h, const std::string &s)
{
    fnv64(h, s.size());
    fnvBytes(h, s.data(), s.size());
}

} // namespace mobius

#endif // MOBIUS_BASE_HASH_HH
