#include "storage/serializer.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"

namespace taskbench::storage {
namespace {

data::Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  data::Matrix m(rows, cols);
  Rng rng(seed);
  data::FillUniform(&m, &rng);
  return m;
}

TEST(SerializerTest, RoundTripPreservesContents) {
  const data::Matrix original = RandomMatrix(13, 7, 3);
  std::vector<uint8_t> bytes;
  Serializer::Serialize(original, &bytes);
  EXPECT_EQ(bytes.size(), Serializer::SerializedSize(original));
  auto restored = Serializer::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->ApproxEquals(original, 0));
}

TEST(SerializerTest, EmptyMatrixRoundTrip) {
  const data::Matrix original;
  std::vector<uint8_t> bytes;
  Serializer::Serialize(original, &bytes);
  auto restored = Serializer::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->rows(), 0);
  EXPECT_EQ(restored->cols(), 0);
}

TEST(SerializerTest, DetectsTruncation) {
  const data::Matrix original = RandomMatrix(4, 4, 1);
  std::vector<uint8_t> bytes;
  Serializer::Serialize(original, &bytes);
  bytes.resize(bytes.size() - 8);
  EXPECT_FALSE(Serializer::Deserialize(bytes).ok());
  bytes.resize(5);
  EXPECT_FALSE(Serializer::Deserialize(bytes).ok());
}

// A bare 28-byte header (no payload, crc 0 — the CRC of zero bytes)
// whose dimensions claim more doubles than the buffer holds.
std::vector<uint8_t> HeaderOnlyBlock(int64_t rows, int64_t cols) {
  std::vector<uint8_t> bytes;
  Serializer::Serialize(data::Matrix(0, 0), &bytes);
  EXPECT_EQ(bytes.size(), 28u);
  std::memcpy(bytes.data() + 8, &rows, sizeof(rows));
  std::memcpy(bytes.data() + 16, &cols, sizeof(cols));
  return bytes;
}

TEST(SerializerTest, RejectsDimensionsWhoseByteCountWraps) {
  // 2^31 x 2^30 doubles = 2^64 bytes: the byte count wraps to 0, which
  // matched the empty payload and its CRC before the shape was checked
  // against the buffer, and Matrix(2^31, 2^30) then aborted.
  const auto wrapped = Serializer::Deserialize(
      HeaderOnlyBlock(int64_t{1} << 31, int64_t{1} << 30));
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrapped.status().message().find("size mismatch"),
            std::string::npos);

  // 2^40 x 2^40 overflows int64 element counts too (Matrix's TB_CHECK
  // shape) and likewise wraps to 0 bytes.
  const auto overflowing = Serializer::Deserialize(
      HeaderOnlyBlock(int64_t{1} << 40, int64_t{1} << 40));
  ASSERT_FALSE(overflowing.ok());
  EXPECT_EQ(overflowing.status().code(), StatusCode::kInvalidArgument);

  // A zero-sized shape with a nonzero other dimension is still valid.
  const auto empty_rows = Serializer::Deserialize(HeaderOnlyBlock(0, 7));
  ASSERT_TRUE(empty_rows.ok());
  EXPECT_EQ(empty_rows->rows(), 0);
  EXPECT_EQ(empty_rows->cols(), 7);
}

TEST(SerializerTest, DetectsCorruptedPayload) {
  const data::Matrix original = RandomMatrix(4, 4, 1);
  std::vector<uint8_t> bytes;
  Serializer::Serialize(original, &bytes);
  bytes.back() ^= 0xff;  // flip payload bits
  const auto result = Serializer::Deserialize(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

TEST(SerializerTest, DetectsBadMagic) {
  const data::Matrix original = RandomMatrix(2, 2, 1);
  std::vector<uint8_t> bytes;
  Serializer::Serialize(original, &bytes);
  bytes[0] ^= 0xff;
  EXPECT_FALSE(Serializer::Deserialize(bytes).ok());
}

TEST(SerializerTest, Crc32KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926 (IEEE check value).
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Serializer::Crc32(data, sizeof(data)), 0xCBF43926u);
  EXPECT_EQ(internal::Crc32Portable(data, sizeof(data)), 0xCBF43926u);
  // Nine bytes are below the fold's 64-byte minimum, so this checks
  // its table entry; the sweep below covers the fold itself.
  if (internal::Crc32ClmulSupported()) {
    EXPECT_EQ(internal::Crc32Clmul(data, sizeof(data)), 0xCBF43926u);
  }
}

/// Bit-at-a-time CRC-32 straight from the definition: the reference
/// both optimized paths must reproduce.
uint32_t BitwiseCrc32(const uint8_t* data, size_t size) {
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ (0xedb88320u & -(crc & 1));
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(size_t size, uint64_t seed) {
  std::vector<uint8_t> bytes(size);
  Rng rng(seed);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextUint64());
  return bytes;
}

TEST(SerializerTest, Crc32PathsMatchBitwiseReference) {
  // Every length across the fold's 64-byte minimum, its 64- and
  // 16-byte strides and the table tails, at start offsets 0..15.
  const std::vector<uint8_t> bytes = RandomBytes(1100 + 16, 5);
  const bool clmul = internal::Crc32ClmulSupported();
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      const uint8_t* p = bytes.data() + offset;
      const uint32_t want = BitwiseCrc32(p, len);
      ASSERT_EQ(internal::Crc32Portable(p, len), want)
          << "portable, offset " << offset << ", length " << len;
      if (clmul) {
        ASSERT_EQ(internal::Crc32Clmul(p, len), want)
            << "clmul, offset " << offset << ", length " << len;
      }
      ASSERT_EQ(Serializer::Crc32(p, len), want)
          << "dispatched, offset " << offset << ", length " << len;
    }
  }
  // The length of a serialized 512x512 block: 2 MiB plus 28 bytes.
  const std::vector<uint8_t> big = RandomBytes((2u << 20) + 28, 6);
  const uint32_t want = BitwiseCrc32(big.data(), big.size());
  EXPECT_EQ(internal::Crc32Portable(big.data(), big.size()), want);
  if (clmul) {
    EXPECT_EQ(internal::Crc32Clmul(big.data(), big.size()), want);
  }
  EXPECT_EQ(Serializer::Crc32(big.data(), big.size()), want);
}

TEST(SerializerTest, EverySingleBitFlipInABlockIsRejected) {
  const data::Matrix block = RandomMatrix(512, 512, 9);
  std::vector<uint8_t> bytes;
  Serializer::Serialize(block, &bytes);
  // Flips land in the CRC field (bytes 24..27) or the payload; flips in
  // the magic, version or dimensions fail the earlier header checks.
  constexpr size_t kCrcOffset = 24;
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const size_t bit =
        kCrcOffset * 8 + rng.NextBounded((bytes.size() - kCrcOffset) * 8);
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    const auto result = Serializer::Deserialize(bytes);
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ASSERT_FALSE(result.ok()) << "flip of bit " << bit << " accepted";
    ASSERT_NE(result.status().message().find("checksum mismatch"),
              std::string::npos)
        << "bit " << bit << ": " << result.status().ToString();
  }
  EXPECT_TRUE(Serializer::Deserialize(bytes).ok());
}

TEST(SerializerTest, WireFormatCrcIsPinned) {
  // The CRC field the serializer wrote for this matrix before the
  // table loop was replaced; stored blocks must keep verifying.
  data::Matrix m(48, 40);
  for (int64_t i = 0; i < 48; ++i) {
    for (int64_t j = 0; j < 40; ++j) m.data()[i * 40 + j] = i - 0.25 * j;
  }
  std::vector<uint8_t> bytes;
  Serializer::Serialize(m, &bytes);
  ASSERT_EQ(bytes.size(), 28u + 48 * 40 * 8);
  uint32_t crc = 0;
  std::memcpy(&crc, bytes.data() + 24, sizeof(crc));
  EXPECT_EQ(crc, 0xe3b2825eu);
}

TEST(SerializerTest, AppendsToExistingBuffer) {
  const data::Matrix a = RandomMatrix(2, 3, 1);
  const data::Matrix b = RandomMatrix(3, 2, 2);
  std::vector<uint8_t> bytes;
  Serializer::Serialize(a, &bytes);
  const size_t a_size = bytes.size();
  Serializer::Serialize(b, &bytes);
  EXPECT_EQ(bytes.size(), a_size + Serializer::SerializedSize(b));
  // First record still parses when isolated.
  std::vector<uint8_t> first(bytes.begin(), bytes.begin() + a_size);
  auto restored = Serializer::Deserialize(first);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->ApproxEquals(a, 0));
}

class SerializerSizeSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(SerializerSizeSweep, RoundTripAcrossSizes) {
  const int64_t n = GetParam();
  const data::Matrix original = RandomMatrix(n, n, 7);
  std::vector<uint8_t> bytes;
  Serializer::Serialize(original, &bytes);
  auto restored = Serializer::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->ApproxEquals(original, 0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SerializerSizeSweep,
                         ::testing::Values(1, 2, 3, 8, 17, 64, 129));

}  // namespace
}  // namespace taskbench::storage
