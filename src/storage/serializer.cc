#include "storage/serializer.h"

#include <cstring>

#include "common/strings.h"

namespace taskbench::storage {

namespace {

constexpr uint32_t kMagic = 0x544b4c42;  // 'TBLK' little-endian-ish tag
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8 + 4;

template <typename T>
void AppendPod(std::vector<uint8_t>* out, T value) {
  const auto* p = reinterpret_cast<const uint8_t*>(&value);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
T ReadPod(const uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

}  // namespace

uint64_t Serializer::SerializedSize(const data::Matrix& m) {
  return kHeaderBytes + m.bytes();
}

void Serializer::Serialize(const data::Matrix& m, std::vector<uint8_t>* out) {
  out->reserve(out->size() + SerializedSize(m));
  AppendPod<uint32_t>(out, kMagic);
  AppendPod<uint32_t>(out, kVersion);
  AppendPod<int64_t>(out, m.rows());
  AppendPod<int64_t>(out, m.cols());
  const auto* payload = reinterpret_cast<const uint8_t*>(m.data());
  const size_t payload_bytes = m.bytes();
  AppendPod<uint32_t>(out, Crc32(payload, payload_bytes));
  out->insert(out->end(), payload, payload + payload_bytes);
}

void Serializer::SerializeTo(const data::Matrix& m, uint8_t* out) {
  auto write_pod = [&out](auto value) {
    std::memcpy(out, &value, sizeof(value));
    out += sizeof(value);
  };
  write_pod(kMagic);
  write_pod(kVersion);
  write_pod(m.rows());
  write_pod(m.cols());
  const auto* payload = reinterpret_cast<const uint8_t*>(m.data());
  const size_t payload_bytes = m.bytes();
  write_pod(Crc32(payload, payload_bytes));
  if (payload_bytes > 0) std::memcpy(out, payload, payload_bytes);
}

Result<data::Matrix> Serializer::Deserialize(
    const std::vector<uint8_t>& bytes) {
  return Deserialize(bytes.data(), bytes.size());
}

Result<data::Matrix> Serializer::Deserialize(const uint8_t* data,
                                             size_t size) {
  if (size < kHeaderBytes) {
    return Status::InvalidArgument(
        StrFormat("serialized block truncated: %zu bytes", size));
  }
  const uint8_t* p = data;
  const auto magic = ReadPod<uint32_t>(p);
  if (magic != kMagic) {
    return Status::InvalidArgument("bad magic in serialized block");
  }
  const auto version = ReadPod<uint32_t>(p + 4);
  if (version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported block version %u", version));
  }
  const auto rows = ReadPod<int64_t>(p + 8);
  const auto cols = ReadPod<int64_t>(p + 16);
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("negative dimensions in serialized block");
  }
  const auto crc = ReadPod<uint32_t>(p + 24);
  // The element count the buffer holds, checked against the header by
  // division: rows * cols * 8 can wrap (rows = 2^31, cols = 2^30 wraps
  // to 0 and would pass the size and CRC checks of an empty payload).
  const size_t payload_bytes = size - kHeaderBytes;
  const uint64_t elements = payload_bytes / 8;
  const bool shape_matches =
      payload_bytes % 8 == 0 &&
      (rows == 0 || cols == 0
           ? elements == 0
           : static_cast<uint64_t>(cols) <= elements &&
                 elements % static_cast<uint64_t>(cols) == 0 &&
                 elements / static_cast<uint64_t>(cols) ==
                     static_cast<uint64_t>(rows));
  if (!shape_matches) {
    return Status::InvalidArgument(StrFormat(
        "serialized block size mismatch: header says %lldx%lld doubles, "
        "buffer has %zu payload bytes",
        static_cast<long long>(rows), static_cast<long long>(cols),
        payload_bytes));
  }
  const uint8_t* payload = p + kHeaderBytes;
  if (Crc32(payload, payload_bytes) != crc) {
    return Status::InvalidArgument("checksum mismatch in serialized block");
  }
  // Every element is overwritten below, so skip the zero fill.
  data::Matrix m = data::Matrix::Uninitialized(rows, cols);
  // 0x0 matrices have no payload and a null backing pointer; memcpy
  // requires non-null arguments even for zero sizes (UB otherwise).
  if (payload_bytes > 0) std::memcpy(m.data(), payload, payload_bytes);
  return m;
}

}  // namespace taskbench::storage
