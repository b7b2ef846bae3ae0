#ifndef TASKBENCH_STORAGE_SERIALIZER_H_
#define TASKBENCH_STORAGE_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/matrix.h"

namespace taskbench::storage {

/// Binary serialization of matrix blocks — the real counterpart of
/// the (de)serialization stage the paper identifies as a dominant
/// overhead (Section 5.1.2).
///
/// Wire format (little-endian):
///   magic  u32   'TBLK'
///   version u32  1
///   rows   i64
///   cols   i64
///   crc32  u32   of the payload
///   payload rows*cols float64
class Serializer {
 public:
  /// Appends the serialized form of `m` to `out`. Callers on the hot
  /// path clear and reuse one scratch vector per worker, so steady
  /// state serialization performs no allocation.
  static void Serialize(const data::Matrix& m, std::vector<uint8_t>* out);

  /// Writes exactly SerializedSize(m) bytes at `out`. Lets callers
  /// holding mapped destinations (the shared-memory arena) serialize
  /// in place with no staging copy.
  static void SerializeTo(const data::Matrix& m, uint8_t* out);

  /// Parses one serialized block from `bytes`. Fails on truncation,
  /// bad magic/version, or checksum mismatch.
  static Result<data::Matrix> Deserialize(const std::vector<uint8_t>& bytes);

  /// Same, from a raw buffer (pooled scratch on the hot path).
  static Result<data::Matrix> Deserialize(const uint8_t* data, size_t size);

  /// Size in bytes Serialize() will produce for `m`.
  static uint64_t SerializedSize(const data::Matrix& m);

  /// CRC-32 (IEEE 802.3 polynomial) of `data`. Runs a PCLMULQDQ fold
  /// on x86 CPUs that support it and slice-by-16 tables elsewhere,
  /// selected once per process; both give the same value.
  static uint32_t Crc32(const uint8_t* data, size_t size);
};

/// The two paths Serializer::Crc32 selects between, exposed for tests.
namespace internal {

/// Slice-by-16 table CRC-32; runs on every CPU.
uint32_t Crc32Portable(const uint8_t* data, size_t size);

/// True when this CPU can run Crc32Clmul's carry-less-multiply fold.
bool Crc32ClmulSupported();

/// Carry-less-multiply fold CRC-32. Call only when
/// Crc32ClmulSupported(); on non-x86 builds it is Crc32Portable.
uint32_t Crc32Clmul(const uint8_t* data, size_t size);

}  // namespace internal

}  // namespace taskbench::storage

#endif  // TASKBENCH_STORAGE_SERIALIZER_H_
