// Hashing helpers: FNV-1a (shard routing, net frames), integer mixing (the
// cache manager and the hash-file access method), and the word-at-a-time
// checksum of WAL records.
#ifndef OBJREP_UTIL_HASH_H_
#define OBJREP_UTIL_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace objrep {

/// 64-bit FNV-1a over a byte range.
inline uint64_t Fnv1a64(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline uint64_t Fnv1a64(std::string_view s) { return Fnv1a64(s.data(), s.size()); }

/// Finalizer from splitmix64; good avalanche for bucketing integer keys.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Word-at-a-time 64-bit checksum — the WAL's record checksum. Each 8-byte
/// word (host byte order) is folded in with one multiply-mix step, the 0-7
/// byte tail as one zero-padded word, then the length and a Mix64
/// avalanche finish it. For a fixed state every step is a bijection of the
/// word, and for a fixed word a bijection of the state, so two inputs of
/// equal length that differ in any one word — in particular by any single
/// flipped bit — always checksum differently. Not FNV-compatible.
inline uint64_t Checksum64(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0x6a09e667f3bcc909ULL;
  auto step = [&h](uint64_t w) {
    h = std::rotl(h ^ (w * 0x9fb21c651e98df25ULL), 29) * 0xc2b2ae3d27d4eb4fULL;
  };
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    step(w);
  }
  uint64_t tail = 0;
  if (i < len) std::memcpy(&tail, p + i, len - i);
  step(tail);
  return Mix64(h ^ len);
}

/// Order-independent-free combiner (boost-style, order matters).
inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return seed ^ (Mix64(v) + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace objrep

#endif  // OBJREP_UTIL_HASH_H_
