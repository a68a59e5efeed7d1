// FNV-1a state digests: the determinism fingerprint the simulators fold their observable end
// state into. One 64-bit value per run; equal values across thread counts and reruns are what
// the determinism tests and bench gates compare.

#ifndef SRC_OBS_DIGEST_H_
#define SRC_OBS_DIGEST_H_

#include <cstdint>

namespace shardman {
namespace obs {

constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

// Folds the eight bytes of `v`, least significant first, into the running digest `h`.
inline void FnvMix(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xFF)) * kFnvPrime;
    v >>= 8;
  }
}

}  // namespace obs
}  // namespace shardman

#endif  // SRC_OBS_DIGEST_H_
