#ifndef RE2XOLAP_UTIL_HASH_H_
#define RE2XOLAP_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>

namespace re2xolap::util {

/// XXH64 (the 64-bit xxHash variant): fast non-cryptographic hash.
/// Deterministic across runs and platforms of the same endianness. Used as
/// the snapshot section/header checksum (storage::Xxh64 forwards here).
uint64_t Xxh64(const void* data, size_t len, uint64_t seed = 0);

}  // namespace re2xolap::util

#endif  // RE2XOLAP_UTIL_HASH_H_
