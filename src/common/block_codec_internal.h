#ifndef TIX_COMMON_BLOCK_CODEC_INTERNAL_H_
#define TIX_COMMON_BLOCK_CODEC_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/result.h"

/// \file
/// Shared guts of the v4 block-tail decode kernels. block_codec.cc owns
/// the one v4 decode loop (framing, per-value decode, error checks);
/// block_codec_simd.cc (SSSE3/SSE4.1 shuffle tables, x86 only) only
/// supplies a bulk decoder that loop runs first. So the two kernels
/// cannot drift apart on error semantics: every accept/reject decision
/// is made by the same code.

namespace tix::codec::internal {

/// v4 length-code table: 2-bit codes 0..3 map to 0/1/2/4 data bytes.
inline constexpr uint32_t kV4Len[4] = {0, 1, 2, 4};

/// An accelerated prefix of a v4 decode. Given a framed tail (`ctrl` is
/// the control stream, `*data` the first data byte, `end` one past the
/// tail) it decodes postings [1, n) for an n <= count of its choosing,
/// writes them to `triples`, advances `*data` past their data bytes and
/// returns n. It reads no byte at or past `end` and detects no errors;
/// the caller decodes postings [n, count) and checks the tail.
using V4BulkDecoder = size_t (*)(const uint8_t* ctrl, const uint8_t** data,
                                 const uint8_t* end, size_t count,
                                 uint32_t* triples);

/// The v4 decode loop of both kernels: checks framing, runs `bulk` (null
/// for the scalar kernel), decodes the remaining postings one value at
/// a time, and rejects trailing bytes.
Status DecodeTailV4(std::string_view bytes, size_t count, uint32_t* triples,
                    V4BulkDecoder bulk);

/// The SIMD kernel for v4 tails (block_codec_simd.cc). On non-x86 builds
/// it is the scalar loop.
Status DecodeTailV4Simd(std::string_view bytes, size_t count,
                        uint32_t* triples);

/// True when block_codec_simd.cc was built with the x86 kernel (the
/// machine must additionally report SSSE3+SSE4.1 for it to run).
bool SimdKernelCompiled();

}  // namespace tix::codec::internal

#endif  // TIX_COMMON_BLOCK_CODEC_INTERNAL_H_
