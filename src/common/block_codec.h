#ifndef TIX_COMMON_BLOCK_CODEC_H_
#define TIX_COMMON_BLOCK_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

/// \file
/// Block codecs for posting triples (doc, node, pos).
///
/// A block of up to kSkipInterval postings is stored as its *tail*: the
/// first triple lives uncompressed in the block's skip entry (it is the
/// seek key, so merges read it without touching the byte stream), and
/// every successor is delta coded against its predecessor:
///
///   doc_delta
///   node_delta   (absolute node id when doc_delta != 0)
///   pos_delta    (absolute word position when doc_delta != 0)
///
/// Two wire encodings of those deltas exist:
///
///   kV3 — LEB128 varints, interleaved (dd, nd, pd) per posting. The
///         original block format; value boundaries are only discoverable
///         serially (each varint's length depends on its bytes).
///   kV4 — StreamVByte-style split layout: (nvals + 3) / 4 control bytes
///         up front, 2-bit length codes {0 -> 0 bytes, 1 -> 1, 2 -> 2,
///         3 -> 4}, then the little-endian data bytes. One control byte
///         describes four values, so a shuffle-table kernel decodes four
///         at a time with no serial byte-boundary dependency. Code 0
///         (value 0, zero data bytes) keeps the common all-zero doc
///         deltas free. Unused codes in the last control byte must be 0.
///
/// Keeping the in-memory block encoding identical to the wire encoding
/// means SaveToFile can copy block bytes verbatim and LoadFromFile never
/// materializes a posting vector; this holds for both formats. The codec
/// layer knows nothing about index types: it moves flat uint32 triples,
/// and the index layer supplies `Posting` storage (three uint32 fields,
/// statically asserted there to have exactly this layout).
///
/// Every file the index layer writes uses kV4; kV3 tails are still read
/// (older files and segments) and can be written on request by
/// InvertedIndex::SaveToFile(path, 3).
///
/// Decoding is served by one of two kernels chosen at process start: the
/// scalar reference loop, or an SSSE3/SSE4.1 shuffle-table decoder for
/// kV4 (kV3 tails always take the scalar loop). Both agree bit-for-bit
/// on outputs *and* Status outcomes (tests/codec_test.cc fuzzes them
/// differentially). TIX_DECODE_KERNEL=scalar|simd overrides the
/// automatic pick.

namespace tix::codec {

/// Wire encoding of a block tail. Values match the index file format
/// version that introduced them.
enum class TailFormat : uint8_t {
  kV3 = 3,  ///< interleaved LEB128 varints
  kV4 = 4,  ///< StreamVByte-style control bytes + data bytes
};

/// Decode implementation. kScalar is the portable reference; kSimd
/// requires SSSE3+SSE4.1 and an x86 build, and decodes kV3 tails with
/// the scalar loop.
enum class DecodeKernel : uint8_t { kScalar = 0, kSimd = 1 };

/// "scalar" or "simd".
const char* DecodeKernelName(DecodeKernel kernel);

/// Whether `kernel` can run on this machine (build arch + CPUID).
bool DecodeKernelAvailable(DecodeKernel kernel);

/// The kernel DecodeBlockTail uses. Chosen once on first call: the
/// TIX_DECODE_KERNEL env var if set to an available kernel, else simd
/// when available, else scalar. Thread-safe.
DecodeKernel ActiveDecodeKernel();

/// Test/bench hook: force the active kernel. CHECK-fails if `kernel` is
/// not available on this machine.
void SetActiveDecodeKernel(DecodeKernel kernel);

/// Appends the encoded tail of a block to `out`: triples[1..count) delta
/// coded against their predecessors, starting from triples[0]. A
/// one-posting block has an empty tail. `triples` holds 3 * count
/// uint32 values laid out (doc, node, pos).
void EncodeBlockTail(TailFormat format, const uint32_t* triples, size_t count,
                     std::string* out);

/// Inverse of EncodeBlockTail, using the active kernel. `triples[0..2]`
/// must already hold the block head (from the skip entry); fills
/// triples[3 .. 3*count). `bytes` must contain exactly the block's tail
/// — truncated, overlong or trailing input returns Corruption. Decoded
/// values may wrap on adversarial input; callers validate ordering once
/// at load time (PostingList::FinishCompressed), after which decoding
/// the same bytes is deterministic and cannot fail.
Status DecodeBlockTail(TailFormat format, std::string_view bytes, size_t count,
                       uint32_t* triples);

/// DecodeBlockTail with an explicit kernel, for differential tests and
/// the bench sweep. CHECK-fails if `kernel` is not available.
Status DecodeBlockTailWithKernel(TailFormat format, DecodeKernel kernel,
                                 std::string_view bytes, size_t count,
                                 uint32_t* triples);

}  // namespace tix::codec

#endif  // TIX_COMMON_BLOCK_CODEC_H_
