#include "common/block_codec.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/block_codec_internal.h"
#include "common/cpu.h"
#include "common/logging.h"
#include "common/varint.h"

namespace tix::codec {

using internal::kV4Len;

namespace {

constexpr char kErrVarint[] = "posting block: truncated or overlong varint";
constexpr char kErrTrailing[] = "posting block: trailing bytes after tail";

constexpr size_t V4CtrlLen(size_t nvals) { return (nvals + 3) / 4; }

/// Unused codes in the last (partial) control byte must be zero; this is
/// the v4 analogue of the v3 trailing-bytes check, so a flipped padding
/// bit cannot hide in an otherwise valid block.
bool V4PaddingOk(const uint8_t* ctrl, size_t nvals) {
  if ((nvals & 3) == 0) return true;
  return (ctrl[nvals >> 2] >> ((nvals & 3) * 2)) == 0;
}

/// Bounded LEB128 decode of one uint32. Returns the advanced pointer, or
/// nullptr on truncated input, a fifth byte carrying more than the top
/// four value bits, or a continuation past the fifth byte. Kept on raw
/// pointers (instead of GetVarint32's string_view interface) so the
/// per-posting hot loop does no view re-slicing.
const uint8_t* DecodeU32(const uint8_t* p, const uint8_t* end,
                         uint32_t* out) {
  uint32_t result = 0;
  int shift = 0;
  for (int i = 0; i < 5; ++i) {
    if (p >= end) return nullptr;
    const uint32_t byte = *p++;
    result |= (byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) {
      if (i == 4 && (byte >> 4) != 0) return nullptr;  // beyond 32 bits
      *out = result;
      return p;
    }
    shift += 7;
  }
  return nullptr;  // five continuation bytes: overlong
}

void EncodeBlockTailV3(const uint32_t* triples, size_t count,
                       std::string* out) {
  uint32_t prev_doc = triples[0];
  uint32_t prev_node = triples[1];
  uint32_t prev_pos = triples[2];
  for (size_t i = 1; i < count; ++i) {
    const uint32_t doc = triples[3 * i];
    const uint32_t node = triples[3 * i + 1];
    const uint32_t pos = triples[3 * i + 2];
    const uint32_t doc_delta = doc - prev_doc;
    PutVarint32(out, doc_delta);
    if (doc_delta != 0) {
      prev_node = 0;
      prev_pos = 0;
    }
    PutVarint32(out, node - prev_node);
    PutVarint32(out, pos - prev_pos);
    prev_doc = doc;
    prev_node = node;
    prev_pos = pos;
  }
}

void EncodeBlockTailV4(const uint32_t* triples, size_t count,
                       std::string* out) {
  if (count <= 1) return;
  const size_t nvals = 3 * (count - 1);
  const size_t ctrl_base = out->size();
  out->append(V4CtrlLen(nvals), '\0');
  size_t vi = 0;
  const auto put = [&](uint32_t v) {
    uint32_t code;
    if (v == 0) {
      code = 0;
    } else if (v < (1u << 8)) {
      code = 1;
    } else if (v < (1u << 16)) {
      code = 2;
    } else {
      code = 3;
    }
    (*out)[ctrl_base + (vi >> 2)] = static_cast<char>(
        static_cast<uint8_t>((*out)[ctrl_base + (vi >> 2)]) |
        (code << ((vi & 3) * 2)));
    const char data[4] = {
        static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
        static_cast<char>((v >> 16) & 0xff),
        static_cast<char>((v >> 24) & 0xff)};
    out->append(data, kV4Len[code]);
    ++vi;
  };
  uint32_t prev_doc = triples[0];
  uint32_t prev_node = triples[1];
  uint32_t prev_pos = triples[2];
  for (size_t i = 1; i < count; ++i) {
    const uint32_t doc = triples[3 * i];
    const uint32_t node = triples[3 * i + 1];
    const uint32_t pos = triples[3 * i + 2];
    const uint32_t doc_delta = doc - prev_doc;
    put(doc_delta);
    if (doc_delta != 0) {
      prev_node = 0;
      prev_pos = 0;
    }
    put(node - prev_node);
    put(pos - prev_pos);
    prev_doc = doc;
    prev_node = node;
    prev_pos = pos;
  }
}

/// Selection logic for the process-wide kernel: TIX_DECODE_KERNEL if it
/// names an available kernel, else the best the machine supports.
DecodeKernel PickKernel() {
  if (const char* env = std::getenv("TIX_DECODE_KERNEL")) {
    if (std::strcmp(env, "scalar") == 0) return DecodeKernel::kScalar;
    if (std::strcmp(env, "simd") == 0 &&
        DecodeKernelAvailable(DecodeKernel::kSimd)) {
      return DecodeKernel::kSimd;
    }
  }
  return DecodeKernelAvailable(DecodeKernel::kSimd) ? DecodeKernel::kSimd
                                                    : DecodeKernel::kScalar;
}

std::atomic<int> g_active_kernel{-1};

Status DecodeTailV3(std::string_view bytes, size_t count,
                    uint32_t* triples) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(bytes.data());
  const uint8_t* const end = p + bytes.size();
  uint32_t prev_doc = triples[0];
  uint32_t prev_node = triples[1];
  uint32_t prev_pos = triples[2];
  for (size_t i = 1; i < count; ++i) {
    uint32_t doc_delta = 0;
    uint32_t node_delta = 0;
    uint32_t pos_delta = 0;
    if ((p = DecodeU32(p, end, &doc_delta)) == nullptr ||
        (p = DecodeU32(p, end, &node_delta)) == nullptr ||
        (p = DecodeU32(p, end, &pos_delta)) == nullptr) {
      return Status::Corruption(kErrVarint);
    }
    if (doc_delta != 0) {
      prev_node = 0;
      prev_pos = 0;
    }
    prev_doc += doc_delta;
    prev_node += node_delta;
    prev_pos += pos_delta;
    triples[3 * i] = prev_doc;
    triples[3 * i + 1] = prev_node;
    triples[3 * i + 2] = prev_pos;
  }
  if (p != end) {
    return Status::Corruption(kErrTrailing);
  }
  return Status::OK();
}

}  // namespace

namespace internal {

/// The control stream comes first, so decoding walks two pointers: `vi`
/// indexes 2-bit codes, `data` walks the payload. Posting i's deltas are
/// values 3(i-1) .. 3(i-1)+2, and its predecessor is already in
/// `triples`, whether it is the block head or came from `bulk`.
Status DecodeTailV4(std::string_view bytes, size_t count, uint32_t* triples,
                    V4BulkDecoder bulk) {
  const size_t nvals = count > 0 ? 3 * (count - 1) : 0;
  const size_t ctrl_len = V4CtrlLen(nvals);
  if (bytes.size() < ctrl_len) return Status::Corruption(kErrVarint);
  const uint8_t* const ctrl = reinterpret_cast<const uint8_t*>(bytes.data());
  const uint8_t* data = ctrl + ctrl_len;
  const uint8_t* const end = ctrl + bytes.size();
  if (!V4PaddingOk(ctrl, nvals)) return Status::Corruption(kErrVarint);
  const size_t first = bulk != nullptr && count > 1
                           ? bulk(ctrl, &data, end, count, triples)
                           : 1;
  uint32_t prev_doc = triples[3 * (first - 1)];
  uint32_t prev_node = triples[3 * (first - 1) + 1];
  uint32_t prev_pos = triples[3 * (first - 1) + 2];
  size_t vi = 3 * (first - 1);
  for (size_t i = first; i < count; ++i) {
    uint32_t d[3];
    for (int k = 0; k < 3; ++k, ++vi) {
      const uint32_t code = (ctrl[vi >> 2] >> ((vi & 3) * 2)) & 3u;
      const uint32_t len = kV4Len[code];
      if (static_cast<size_t>(end - data) < len) {
        return Status::Corruption(kErrVarint);
      }
      uint32_t v = 0;
      for (uint32_t b = 0; b < len; ++b) {
        v |= static_cast<uint32_t>(data[b]) << (8 * b);
      }
      d[k] = v;
      data += len;
    }
    const uint32_t keep = d[0] == 0 ? ~0u : 0u;
    prev_doc += d[0];
    prev_node = (prev_node & keep) + d[1];
    prev_pos = (prev_pos & keep) + d[2];
    triples[3 * i] = prev_doc;
    triples[3 * i + 1] = prev_node;
    triples[3 * i + 2] = prev_pos;
  }
  if (data != end) {
    return Status::Corruption(kErrTrailing);
  }
  return Status::OK();
}

}  // namespace internal

const char* DecodeKernelName(DecodeKernel kernel) {
  switch (kernel) {
    case DecodeKernel::kScalar:
      return "scalar";
    case DecodeKernel::kSimd:
      return "simd";
  }
  return "unknown";
}

bool DecodeKernelAvailable(DecodeKernel kernel) {
  switch (kernel) {
    case DecodeKernel::kScalar:
      return true;
    case DecodeKernel::kSimd: {
      const cpu::Features& f = cpu::GetFeatures();
      return internal::SimdKernelCompiled() && f.ssse3 && f.sse41;
    }
  }
  return false;
}

DecodeKernel ActiveDecodeKernel() {
  int k = g_active_kernel.load(std::memory_order_acquire);
  if (k < 0) {
    k = static_cast<int>(PickKernel());
    int expected = -1;
    if (!g_active_kernel.compare_exchange_strong(expected, k,
                                                 std::memory_order_acq_rel)) {
      k = expected;
    }
  }
  return static_cast<DecodeKernel>(k);
}

void SetActiveDecodeKernel(DecodeKernel kernel) {
  TIX_CHECK(DecodeKernelAvailable(kernel));
  g_active_kernel.store(static_cast<int>(kernel), std::memory_order_release);
}

void EncodeBlockTail(TailFormat format, const uint32_t* triples, size_t count,
                     std::string* out) {
  if (format == TailFormat::kV4) {
    EncodeBlockTailV4(triples, count, out);
  } else {
    EncodeBlockTailV3(triples, count, out);
  }
}

Status DecodeBlockTailWithKernel(TailFormat format, DecodeKernel kernel,
                                 std::string_view bytes, size_t count,
                                 uint32_t* triples) {
  TIX_CHECK(DecodeKernelAvailable(kernel));
  if (format == TailFormat::kV3) return DecodeTailV3(bytes, count, triples);
  return kernel == DecodeKernel::kSimd
             ? internal::DecodeTailV4Simd(bytes, count, triples)
             : internal::DecodeTailV4(bytes, count, triples, nullptr);
}

Status DecodeBlockTail(TailFormat format, std::string_view bytes, size_t count,
                       uint32_t* triples) {
  return DecodeBlockTailWithKernel(format, ActiveDecodeKernel(), bytes, count,
                                   triples);
}

}  // namespace tix::codec
