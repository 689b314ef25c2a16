#ifndef TIX_COMMON_CPU_H_
#define TIX_COMMON_CPU_H_

/// \file
/// Runtime CPU feature probe. The decode-kernel dispatcher in
/// common/block_codec.cc consults this once to decide whether the
/// SSSE3/SSE4.1 shuffle-table kernel is safe to run on this machine.
/// On non-x86 builds every SIMD bit reports false and the dispatcher
/// falls back to the portable scalar kernel.

namespace tix::cpu {

struct Features {
  bool ssse3 = false;   ///< pshufb (shuffle-table varint decode)
  bool sse41 = false;   ///< ptest / pextrd / pmovzx (reconstruction)
  bool sse42 = false;
  bool avx2 = false;
};

/// Probed once via CPUID on first call, then cached.
const Features& GetFeatures();

}  // namespace tix::cpu

#endif  // TIX_COMMON_CPU_H_
