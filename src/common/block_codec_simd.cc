#include "common/block_codec_internal.h"

/// \file
/// SSSE3/SSE4.1 decode kernel for v4 (StreamVByte) tails. The control
/// bytes make value boundaries explicit, so one control byte + one
/// pshufb decodes four values with no serial dependency at all. Three
/// control bytes = twelve values = four postings, so the decode loop
/// feeds the reconstruction directly with no staging buffer. One
/// 256-entry shuffle table, built once.
///
/// Reconstruction (the delta prefix sum) is vectorized too: every group
/// of four postings goes through one branchless masked-carry chain —
/// each posting adds its deltas to the previous posting masked by a
/// keep vector (doc lane always kept, node/pos lanes kept only when the
/// doc delta is zero), which encodes the doc_delta != 0 reset rule with
/// no data-dependent branch on doc boundaries.
///
/// This file holds only that bulk loop. Framing checks, the last
/// postings of each block and every error verdict belong to the shared
/// scalar loop (internal::DecodeTailV4), which runs the bulk loop first
/// and then finishes the block.
///
/// Over-read safety: every 16-byte load is guarded against the caller's
/// buffer end, so the kernel never touches bytes past the tail — the
/// last few values of each block are left to the scalar loop instead of
/// a padded load. ASan runs of codec_test and block_index_test prove
/// this.
///
/// The functions carry `__attribute__((target(...)))` so no special
/// compile flags are needed; the dispatcher in block_codec.cc only
/// routes here when CPUID reports SSSE3+SSE4.1.

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstring>

#define TIX_SIMD_TARGET __attribute__((target("ssse3,sse4.1")))

namespace tix::codec::internal {
namespace {

/// StreamVByte table: one control byte describes four values with 2-bit
/// length codes {0,1,2,4 bytes}; the shuffle spreads the packed data
/// bytes into four 32-bit lanes, `total` is the data bytes consumed.
struct V4Entry {
  uint8_t shuffle[16];
  uint8_t total;
};

struct V4Tables {
  V4Entry entries[256];
  V4Tables() {
    for (int ctrl = 0; ctrl < 256; ++ctrl) {
      V4Entry& e = entries[ctrl];
      std::memset(e.shuffle, 0x80, sizeof(e.shuffle));
      uint8_t off = 0;
      for (int k = 0; k < 4; ++k) {
        const uint32_t len = kV4Len[(ctrl >> (2 * k)) & 3];
        for (uint32_t b = 0; b < len; ++b) {
          e.shuffle[4 * k + b] = static_cast<uint8_t>(off + b);
        }
        off = static_cast<uint8_t>(off + len);
      }
      e.total = off;
    }
  }
};

const V4Tables& GetV4Tables() {
  static const V4Tables tables;
  return tables;
}

/// The reconstruction carry: lanes 1..3 hold the running (doc, node,
/// pos) of the last emitted posting (lane 0 is ignored). This is
/// exactly the shape of the last output register of a group, so the
/// vector path chains groups with one pshufd instead of an
/// extract -> broadcast round trip.
TIX_SIMD_TARGET inline __m128i MakeCarry(uint32_t doc, uint32_t node,
                                         uint32_t pos) {
  return _mm_setr_epi32(0, static_cast<int>(doc), static_cast<int>(node),
                        static_cast<int>(pos));
}

/// Reconstructs four postings from their twelve interleaved deltas
/// (a=[dd0 nd0 pd0 dd1] b=[nd1 pd1 dd2 nd2] c=[pd2 dd3 nd3 pd3]),
/// writing them at `outp` (touching outp[0..11] only); returns the new
/// carry.
///
/// One uniform branchless masked-carry chain covers both the
/// within-document case and doc boundaries: with the deltas
/// deinterleaved into per-posting registers D_j = [dd nd pd x], the
/// recurrence is
///
///   P_j = (P_{j-1} & keep_j) + D_j
///
/// where keep_j carries the doc lane always and the node/pos lanes only
/// when dd_j == 0 (a doc change makes them absolute — the reset rule).
/// The keep masks derive from the inputs alone, so the critical path is
/// just the four pand+paddd pairs; there is no data-dependent branch to
/// mispredict on real posting lists, where doc boundaries arrive every
/// few postings in frequent terms.
TIX_SIMD_TARGET inline __m128i ReconstructGroup4(__m128i a, __m128i b,
                                                 __m128i c, __m128i carry,
                                                 uint32_t* outp) {
  // Per-posting delta registers in (doc, node, pos, x) lane order.
  const __m128i d0 = a;
  const __m128i d1 = _mm_alignr_epi8(b, a, 12);
  const __m128i d2 = _mm_alignr_epi8(c, b, 8);
  const __m128i d3 = _mm_srli_si128(c, 4);
  const __m128i zero = _mm_setzero_si128();
  // pshufb spreads dd into the node/pos lanes and *zeroes* the doc lane
  // (0x80), so one compare-to-zero yields the whole keep mask: doc lane
  // 0 == 0 -> always kept, node/pos lanes kept iff dd == 0.
  const __m128i bcast_dd = _mm_setr_epi8(
      -128, -128, -128, -128, 0, 1, 2, 3, 0, 1, 2, 3, -128, -128, -128, -128);
  const __m128i k0 = _mm_cmpeq_epi32(_mm_shuffle_epi8(d0, bcast_dd), zero);
  const __m128i k1 = _mm_cmpeq_epi32(_mm_shuffle_epi8(d1, bcast_dd), zero);
  const __m128i k2 = _mm_cmpeq_epi32(_mm_shuffle_epi8(d2, bcast_dd), zero);
  const __m128i k3 = _mm_cmpeq_epi32(_mm_shuffle_epi8(d3, bcast_dd), zero);
  // Overlapping 16-byte stores at stride 3: each store's junk lane is
  // overwritten by the next posting's doc.
  const __m128i prev = _mm_shuffle_epi32(carry, _MM_SHUFFLE(3, 3, 2, 1));
  const __m128i p0 = _mm_add_epi32(_mm_and_si128(prev, k0), d0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(outp), p0);
  const __m128i p1 = _mm_add_epi32(_mm_and_si128(p0, k1), d1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(outp + 3), p1);
  const __m128i p2 = _mm_add_epi32(_mm_and_si128(p1, k2), d2);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(outp + 6), p2);
  const __m128i p3 = _mm_add_epi32(_mm_and_si128(p2, k3), d3);
  // [pos2, doc3, node3, pos3]: stored at outp + 8 it finishes the group
  // without touching outp[12], and its lanes 1..3 are the next carry.
  const __m128i ret = _mm_alignr_epi8(p3, _mm_slli_si128(p2, 4), 12);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(outp + 8), ret);
  return ret;
}

/// The V4BulkDecoder of the SIMD kernel: decodes whole groups of four
/// postings while a full 16-byte load stays inside the tail.
TIX_SIMD_TARGET size_t DecodeGroupsV4(const uint8_t* ctrl,
                                      const uint8_t** data_inout,
                                      const uint8_t* end, size_t count,
                                      uint32_t* triples) {
  const V4Tables& tables = GetV4Tables();
  const uint8_t* data = *data_inout;
  __m128i carry = MakeCarry(triples[0], triples[1], triples[2]);
  size_t i = 1;
  // The loop starts at control byte 0 and consumes three per group, so
  // each group's codes are whole control bytes.
  for (const uint8_t* c = ctrl; count - i >= 4; c += 3, i += 4) {
    // All three lengths come straight from the control bytes, so the
    // three data loads issue in parallel instead of each waiting on the
    // previous one's consumed-bytes add.
    const V4Entry& e0 = tables.entries[c[0]];
    const V4Entry& e1 = tables.entries[c[1]];
    const V4Entry& e2 = tables.entries[c[2]];
    const uint32_t t0 = e0.total;
    const uint32_t t01 = t0 + e1.total;
    // The third 16-byte load starts at data + t01 and t0 <= t01, so this
    // one bound guards all three loads exactly.
    if (static_cast<size_t>(end - data) < t01 + 16) break;
    const __m128i a = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(e0.shuffle)));
    const __m128i b = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + t0)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(e1.shuffle)));
    const __m128i d = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + t01)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(e2.shuffle)));
    data += t01 + e2.total;
    carry = ReconstructGroup4(a, b, d, carry, triples + 3 * i);
  }
  *data_inout = data;
  return i;
}

}  // namespace

Status DecodeTailV4Simd(std::string_view bytes, size_t count,
                        uint32_t* triples) {
  return DecodeTailV4(bytes, count, triples, &DecodeGroupsV4);
}

bool SimdKernelCompiled() { return true; }

}  // namespace tix::codec::internal

#else  // !x86

namespace tix::codec::internal {

Status DecodeTailV4Simd(std::string_view bytes, size_t count,
                        uint32_t* triples) {
  return DecodeTailV4(bytes, count, triples, nullptr);
}

bool SimdKernelCompiled() { return false; }

}  // namespace tix::codec::internal

#endif  // x86
