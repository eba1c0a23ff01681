// Shared integer hashing. The splitmix64 finaliser is the repo's one
// blessed bit mixer: enough avalanche that structured inputs (small
// signed grid coordinates, edge-id pairs, double bit patterns) spread
// over a hash table, cheap enough to run per lookup, and fixed for all
// time so hashed containers never change bucket shape between builds.
// Hash *values* must still never leak into results — the determinism
// contract forbids hash-order iteration into anything published.

#ifndef TAXITRACE_COMMON_HASH_H_
#define TAXITRACE_COMMON_HASH_H_

#include <cstdint>

namespace taxitrace {

/// splitmix64 finaliser (Steele, Lea & Flood): full-avalanche mix of a
/// 64-bit value. Every bit of the input affects every bit of the
/// output, which is what lets callers pack two 32-bit coordinates or a
/// double's bit pattern into the argument without clustering.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Hash of a signed 2-D lattice coordinate (analysis grid cells,
/// spatial-index cells). Packs both 32-bit words into
/// one SplitMix64 input so the pair is injective before mixing and no
/// low-bit structure survives power-of-two bucket masking.
inline uint64_t HashCell2D(int32_t cx, int32_t cy) {
  return SplitMix64(
      (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
      static_cast<uint64_t>(static_cast<uint32_t>(cy)));
}

}  // namespace taxitrace

#endif  // TAXITRACE_COMMON_HASH_H_
