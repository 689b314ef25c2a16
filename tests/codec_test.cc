#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/block_codec.h"
#include "common/varint.h"
#include "tests/test_util.h"

/// \file
/// Differential fuzzing of the posting-block decode kernels. The scalar
/// loop is the reference; the SIMD kernel must agree with it
/// bit-for-bit on decoded triples AND on Status outcomes (same
/// ok/corruption verdict, same message) for every input — seeded random
/// blocks, every-prefix truncations, trailing bytes, overlong varints,
/// v4 padding violations, and wraparound deltas. Also pins the varint
/// boundary semantics shared between common/varint.h (GetVarint32) and
/// the kernels' inline decoders so the two never drift. Runs under TSan
/// and ASan/UBSan via scripts/check_sanitizers.sh, which is what proves
/// the SIMD tail handling never reads past the buffer.

namespace tix::codec {
namespace {

constexpr TailFormat kFormats[] = {TailFormat::kV3, TailFormat::kV4};

std::vector<DecodeKernel> AvailableKernels() {
  std::vector<DecodeKernel> kernels;
  for (const DecodeKernel kernel :
       {DecodeKernel::kScalar, DecodeKernel::kSimd}) {
    if (DecodeKernelAvailable(kernel)) kernels.push_back(kernel);
  }
  return kernels;
}

struct DecodeOutcome {
  std::string status;  // Status::ToString() — exact message parity
  std::vector<uint32_t> triples;
};

/// Decodes `bytes` as a `count`-posting block tail with head (7, 11, 13)
/// under one kernel. The triples vector is only meaningful when the
/// status is OK (kernels may differ in how much scratch they touched
/// before detecting corruption).
DecodeOutcome DecodeWith(TailFormat format, DecodeKernel kernel,
                         std::string_view bytes, size_t count) {
  DecodeOutcome out;
  out.triples.assign(3 * count, 0);
  out.triples[0] = 7;
  out.triples[1] = 11;
  out.triples[2] = 13;
  const Status status =
      DecodeBlockTailWithKernel(format, kernel, bytes, count,
                                out.triples.data());
  out.status = status.ToString();
  if (!status.ok()) out.triples.clear();
  return out;
}

/// Asserts that every available kernel produces the scalar kernel's
/// exact outcome on (format, bytes, count).
void ExpectKernelParity(TailFormat format, std::string_view bytes,
                        size_t count, const std::string& label) {
  const DecodeOutcome reference =
      DecodeWith(format, DecodeKernel::kScalar, bytes, count);
  for (const DecodeKernel kernel : AvailableKernels()) {
    const DecodeOutcome got = DecodeWith(format, kernel, bytes, count);
    ASSERT_EQ(got.status, reference.status)
        << label << " format=" << static_cast<int>(format)
        << " kernel=" << DecodeKernelName(kernel);
    ASSERT_EQ(got.triples, reference.triples)
        << label << " format=" << static_cast<int>(format)
        << " kernel=" << DecodeKernelName(kernel);
  }
}

/// A random block of `count` posting triples. `doc_change_num/denom` is
/// the probability a posting starts a new document (exercising the
/// node/pos reset rule); `wild` draws values from the full uint32 range
/// (any values round-trip — deltas wrap by design).
std::vector<uint32_t> RandomTriples(std::mt19937* rng, size_t count,
                                    int doc_change_num, int doc_change_denom,
                                    bool wild) {
  std::uniform_int_distribution<uint32_t> byte_class(0, 3);
  std::uniform_int_distribution<uint32_t> full;
  std::uniform_int_distribution<int> denom(1, doc_change_denom);
  auto value = [&]() -> uint32_t {
    if (wild) return full(*rng);
    switch (byte_class(*rng)) {
      case 0:
        return 0;
      case 1:
        return full(*rng) % 250 + 1;
      case 2:
        return full(*rng) % 60000 + 256;
      default:
        return full(*rng);
    }
  };
  std::vector<uint32_t> triples;
  triples.reserve(3 * count);
  uint32_t doc = value();
  for (size_t i = 0; i < count; ++i) {
    if (i > 0 && denom(*rng) <= doc_change_num) doc += value() + 1;
    triples.push_back(doc);
    triples.push_back(value());
    triples.push_back(value());
  }
  return triples;
}

// ------------------------------------------------------ dispatch basics

TEST(DecodeKernelTest, PortableKernelsAreAlwaysAvailable) {
  EXPECT_TRUE(DecodeKernelAvailable(DecodeKernel::kScalar));
  EXPECT_TRUE(DecodeKernelAvailable(ActiveDecodeKernel()));
  EXPECT_STREQ(DecodeKernelName(DecodeKernel::kScalar), "scalar");
  EXPECT_STREQ(DecodeKernelName(DecodeKernel::kSimd), "simd");
}

TEST(DecodeKernelTest, SetActiveKernelRoutesDecodeBlockTail) {
  const DecodeKernel previous = ActiveDecodeKernel();
  const uint32_t triples[6] = {1, 2, 3, 1, 2, 5};
  for (const DecodeKernel kernel : AvailableKernels()) {
    SetActiveDecodeKernel(kernel);
    EXPECT_EQ(ActiveDecodeKernel(), kernel);
    for (const TailFormat format : kFormats) {
      std::string bytes;
      EncodeBlockTail(format, triples, 2, &bytes);
      uint32_t out[6] = {1, 2, 3, 0, 0, 0};
      testing::ExpectOk(DecodeBlockTail(format, bytes, 2, out));
      EXPECT_EQ(out[3], 1u);
      EXPECT_EQ(out[4], 2u);
      EXPECT_EQ(out[5], 5u);
    }
  }
  SetActiveDecodeKernel(previous);
}

// ------------------------------------------------- differential fuzzing

TEST(KernelDifferentialTest, SeededRandomBlocksAgreeAcrossKernels) {
  std::mt19937 rng(20260808);
  // Past kSkipInterval (128): the index never writes longer blocks, but
  // the codec takes any count and the SIMD kernel decodes them itself.
  std::uniform_int_distribution<size_t> count_dist(1, 512);
  struct Config {
    int num;
    int denom;
    bool wild;
  };
  // Doc-change rates from "one long document" to "every posting a new
  // doc", plus a full-range wild config that forces 4-byte codes and
  // wraparound reconstruction.
  const Config configs[] = {{0, 1, false},  {1, 50, false}, {1, 4, false},
                            {9, 10, false}, {1, 1, false},  {1, 3, true}};
  for (const Config& config : configs) {
    for (int iter = 0; iter < 300; ++iter) {
      const size_t count = count_dist(rng);
      const std::vector<uint32_t> triples =
          RandomTriples(&rng, count, config.num, config.denom, config.wild);
      for (const TailFormat format : kFormats) {
        std::string bytes;
        EncodeBlockTail(format, triples.data(), count, &bytes);
        for (const DecodeKernel kernel : AvailableKernels()) {
          std::vector<uint32_t> decoded(3 * count);
          decoded[0] = triples[0];
          decoded[1] = triples[1];
          decoded[2] = triples[2];
          const Status status = DecodeBlockTailWithKernel(
              format, kernel, bytes, count, decoded.data());
          ASSERT_TRUE(status.ok())
              << DecodeKernelName(kernel) << " format="
              << static_cast<int>(format) << ": " << status.ToString();
          ASSERT_EQ(decoded, triples)
              << DecodeKernelName(kernel)
              << " format=" << static_cast<int>(format) << " count=" << count;
        }
      }
    }
  }
}

TEST(KernelDifferentialTest, TruncationsAndTrailingBytesAgreeAcrossKernels) {
  std::mt19937 rng(97);
  std::uniform_int_distribution<size_t> count_dist(2, 64);
  for (int iter = 0; iter < 40; ++iter) {
    const size_t count = count_dist(rng);
    const std::vector<uint32_t> triples =
        RandomTriples(&rng, count, 1, 3, iter % 5 == 0);
    for (const TailFormat format : kFormats) {
      std::string bytes;
      EncodeBlockTail(format, triples.data(), count, &bytes);
      // Every strict prefix: all kernels must reject, with the same
      // message the scalar reference gives.
      for (size_t len = 0; len < bytes.size(); ++len) {
        ExpectKernelParity(format, std::string_view(bytes).substr(0, len),
                           count, "prefix=" + std::to_string(len));
      }
      // One trailing byte of every class: still exact parity (the zero
      // byte is a valid varint / control pattern, so it probes the
      // trailing-bytes check rather than the varint validator).
      for (const char extra : {'\0', '\x01', '\x7f', '\x80', '\xff'}) {
        ExpectKernelParity(format, bytes + extra, count, "trailing");
      }
    }
  }
}

TEST(KernelDifferentialTest, RandomGarbageAgreesAcrossKernels) {
  std::mt19937 rng(4242);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::uniform_int_distribution<size_t> len_dist(0, 200);
  std::uniform_int_distribution<size_t> count_dist(1, 128);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t len = len_dist(rng);
    std::string bytes;
    bytes.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(byte_dist(rng)));
    }
    const size_t count = count_dist(rng);
    for (const TailFormat format : kFormats) {
      ExpectKernelParity(format, bytes, count,
                         "garbage iter=" + std::to_string(iter));
    }
  }
}

// ------------------------------------------------- adversarial corners

TEST(KernelDifferentialTest, OverlongAndNonCanonicalVarints) {
  // v3 corners, decoded as a 2-posting block (tail = dd, nd, pd).
  const struct {
    const char* label;
    std::string bytes;
  } cases[] = {
      {"five 0xff continuations", std::string("\xff\xff\xff\xff\xff", 5)},
      {"fifth byte carries bit 4", std::string("\xff\xff\xff\xff\x1f", 5)},
      {"fifth byte max valid", std::string("\xff\xff\xff\xff\x0f", 5) +
                                  std::string("\x00\x00", 2)},
      {"non-canonical zero", std::string("\x80\x00", 2) +
                                 std::string("\x00\x00", 2)},
      {"non-canonical five-byte zero",
       std::string("\x80\x80\x80\x80\x00", 5) + std::string("\x00\x00", 2)},
      {"six-byte continuation",
       std::string("\x80\x80\x80\x80\x80\x00", 6) + std::string("\x00\x00", 2)},
      {"eight continuations then stop",
       std::string("\x80\x80\x80\x80\x80\x80\x80\x80\x00", 9)},
  };
  for (const auto& test_case : cases) {
    ExpectKernelParity(TailFormat::kV3, test_case.bytes, 2, test_case.label);
  }
  // The accept cases must actually accept (guard against "parity by
  // everything rejecting").
  EXPECT_TRUE(DecodeBlockTailWithKernel(
                  TailFormat::kV3, DecodeKernel::kScalar, cases[2].bytes, 2,
                  std::vector<uint32_t>(6).data())
                  .ok());
  EXPECT_TRUE(DecodeBlockTailWithKernel(
                  TailFormat::kV3, DecodeKernel::kScalar, cases[3].bytes, 2,
                  std::vector<uint32_t>(6).data())
                  .ok());
}

TEST(KernelDifferentialTest, V4FramingViolations) {
  // A valid 5-posting v4 tail to mutate: 12 values -> 3 control bytes.
  const uint32_t triples[15] = {9, 9, 9, 9, 10, 3,  9, 10, 7, 9, 10,
                                12, 10, 4, 2};
  std::string valid;
  EncodeBlockTail(TailFormat::kV4, triples, 5, &valid);
  ExpectKernelParity(TailFormat::kV4, valid, 5, "valid baseline");
  ASSERT_TRUE(DecodeBlockTailWithKernel(TailFormat::kV4, DecodeKernel::kScalar,
                                        valid, 5,
                                        std::vector<uint32_t>(15).data())
                  .ok());

  // Nonzero padding codes in the unused slots of the last control byte
  // must be rejected by every kernel identically.
  {
    std::string mutated = valid;
    mutated[2] = static_cast<char>(static_cast<uint8_t>(mutated[2]) | 0xc0);
    ExpectKernelParity(TailFormat::kV4, mutated, 5, "padding code set");
    EXPECT_FALSE(DecodeBlockTailWithKernel(TailFormat::kV4,
                                           DecodeKernel::kScalar, mutated, 5,
                                           std::vector<uint32_t>(15).data())
                     .ok());
  }
  // Inflating a length code without supplying data bytes starves the
  // data region; all kernels must agree on the failure.
  {
    std::string mutated = valid;
    mutated[0] = static_cast<char>(static_cast<uint8_t>(mutated[0]) | 0x03);
    ExpectKernelParity(TailFormat::kV4, mutated, 5, "inflated length code");
  }
  // Control bytes alone (empty data region when codes demand bytes).
  ExpectKernelParity(TailFormat::kV4, valid.substr(0, 3), 5, "ctrl only");
  // An all-zero tail is only valid when every delta is zero — for 5
  // postings that means 3 zero control bytes and nothing else.
  ExpectKernelParity(TailFormat::kV4, std::string(3, '\0'), 5, "all zero");
  EXPECT_TRUE(DecodeBlockTailWithKernel(TailFormat::kV4, DecodeKernel::kScalar,
                                        std::string(3, '\0'), 5,
                                        std::vector<uint32_t>(15).data())
                  .ok());
}

TEST(KernelDifferentialTest, WraparoundDeltasReconstructIdentically) {
  // Descending docs and full-range jumps: deltas wrap modulo 2^32 and
  // must reconstruct to the original values in every kernel. (The index
  // layer validates ordering separately; the codec is order-agnostic.)
  const std::vector<uint32_t> triples = {
      0xffffffffu, 0xffffffffu, 0xffffffffu,  // head at the top of range
      0u,          0xfffffffeu, 1u,           // doc wraps to 0
      0u,          0u,          0xffffffffu,  // pos jumps to max
      0xfffffffeu, 7u,          0u,           // doc nearly wraps again
      0xfffffffeu, 7u,          0u,           // exact repeat (zero deltas)
  };
  const size_t count = triples.size() / 3;
  for (const TailFormat format : kFormats) {
    std::string bytes;
    EncodeBlockTail(format, triples.data(), count, &bytes);
    for (const DecodeKernel kernel : AvailableKernels()) {
      std::vector<uint32_t> decoded(triples.size());
      decoded[0] = triples[0];
      decoded[1] = triples[1];
      decoded[2] = triples[2];
      testing::ExpectOk(DecodeBlockTailWithKernel(format, kernel, bytes, count,
                                                  decoded.data()));
      EXPECT_EQ(decoded, triples)
          << DecodeKernelName(kernel) << " format=" << static_cast<int>(format);
    }
  }
}

// -------------------------------------- varint boundary semantics (v3)

/// The kernels' inline varint decoders and GetVarint32 must accept the
/// same canonical encodings with the same values, and reject the same
/// truncations — the two surfaces decode the same wire format (list
/// headers use GetVarint32, block tails use the kernels) and must never
/// drift. The one deliberate divergence: the kernels cap an encoding at
/// 5 bytes (nothing the encoder emits is longer), while GetVarint32
/// tolerates overlong zero-padding; the kernels being strictly tighter
/// is asserted in OverlongAndNonCanonicalVarints above.
TEST(VarintBoundaryTest, KernelsMatchGetVarint32AtEveryBoundary) {
  const uint32_t boundaries[] = {
      0u,           1u,           127u,          128u,         129u,
      (1u << 14) - 1, 1u << 14,   (1u << 14) + 1,
      (1u << 21) - 1, 1u << 21,   (1u << 21) + 1,
      (1u << 28) - 1, 1u << 28,   (1u << 28) + 1,
      UINT32_MAX - 1, UINT32_MAX};
  for (const uint32_t value : boundaries) {
    std::string encoded;
    PutVarint32(&encoded, value);

    // GetVarint32 round-trips the canonical encoding...
    std::string_view view = encoded;
    EXPECT_EQ(testing::Unwrap(GetVarint32(&view)), value);
    EXPECT_TRUE(view.empty());
    // ...and rejects every strict prefix.
    for (size_t len = 0; len < encoded.size(); ++len) {
      std::string_view prefix = std::string_view(encoded).substr(0, len);
      EXPECT_FALSE(GetVarint32(&prefix).ok()) << value << " prefix " << len;
    }

    // Each kernel decodes the same encoding in both the doc-delta slot
    // (reset rule fires for nonzero values) and the node-delta slot
    // (accumulation path), and rejects the same prefixes.
    const std::string zero2("\x00\x00", 2);
    const std::string as_doc = encoded + zero2;
    std::string as_node;
    as_node.push_back('\x00');
    as_node += encoded;
    as_node.push_back('\x00');
    for (const DecodeKernel kernel : AvailableKernels()) {
      uint32_t out[6] = {40, 50, 60, 0, 0, 0};
      testing::ExpectOk(DecodeBlockTailWithKernel(
          TailFormat::kV3, kernel, as_doc, 2, out));
      EXPECT_EQ(out[3], 40u + value) << DecodeKernelName(kernel);
      EXPECT_EQ(out[4], value == 0 ? 50u : 0u) << DecodeKernelName(kernel);

      uint32_t out2[6] = {40, 50, 60, 0, 0, 0};
      testing::ExpectOk(DecodeBlockTailWithKernel(
          TailFormat::kV3, kernel, as_node, 2, out2));
      EXPECT_EQ(out2[3], 40u) << DecodeKernelName(kernel);
      EXPECT_EQ(out2[4], 50u + value) << DecodeKernelName(kernel);

      for (size_t len = 0; len < encoded.size(); ++len) {
        uint32_t scratch[6] = {40, 50, 60, 0, 0, 0};
        EXPECT_FALSE(DecodeBlockTailWithKernel(
                         TailFormat::kV3, kernel,
                         std::string_view(encoded).substr(0, len), 2, scratch)
                         .ok())
            << DecodeKernelName(kernel) << " value " << value << " prefix "
            << len;
      }
    }
  }
}

}  // namespace
}  // namespace tix::codec
