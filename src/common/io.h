// Binary tensor, framed-container, and CSV serialization used to persist
// datasets, trained models, training checkpoints, and training curves.
//
// Integrity model. Every binary file written here goes through one framed
// container: a "QGF1" magic + format version + payload size + CRC-32
// header, written atomically (temp file + fsync + rename) so a crash
// mid-write can never tear a previously valid file, and a torn or
// bit-flipped payload is detected at read time instead of being silently
// parsed. A file without the frame header (such as a pre-frame "QGT1"
// tensor) is rejected as FrameError::Kind::kBadMagic.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace qugeo {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of a byte range.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t bytes);

/// Typed failure of the framed-container layer; `kind` lets callers
/// distinguish (and report distinctly) how a file is bad.
class FrameError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    kMissing,      ///< the file cannot be opened
    kBadMagic,     ///< not a framed file (or not the expected payload)
    kTruncated,    ///< shorter than its header claims (torn write)
    kCrcMismatch,  ///< payload bytes do not match the stored CRC-32
  };
  FrameError(Kind kind, std::string message)
      : std::runtime_error(std::move(message)), kind_(kind) {}
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// A framed file's contents: the writer-declared format version plus the
/// CRC-verified payload bytes.
struct FramedPayload {
  std::uint32_t version = 0;
  std::vector<unsigned char> payload;
};

/// Atomically persist `payload` under a "QGF1" integrity header: the
/// bytes are written to `<path>.tmp`, flushed and fsync'd, then renamed
/// over `path` — so `path` either keeps its previous contents or holds
/// the complete new frame, never a torn mix. Fault sites:
/// `io.atomic_write` (before the temp write) and `io.rename` (after the
/// payload is durable, before the rename) make both crash windows
/// injectable.
void write_framed_file(const std::filesystem::path& path,
                       std::uint32_t version,
                       std::span<const unsigned char> payload);

/// Read and verify a framed file. Throws FrameError with the precise
/// failure kind (missing / bad magic / truncated / CRC mismatch); the
/// message always names the path.
[[nodiscard]] FramedPayload read_framed_file(const std::filesystem::path& path);

/// Write a flat real array with a shape header ("QGT1" magic + rank +
/// dims + float64 payload), wrapped in the framed container above.
void save_tensor(const std::filesystem::path& path,
                 std::span<const Real> data,
                 std::span<const std::size_t> shape);

/// Loaded tensor payload.
struct LoadedTensor {
  std::vector<std::size_t> shape;
  std::vector<Real> data;
};

/// Read a tensor written by save_tensor. Throws FrameError when the frame
/// is missing, not a frame (kBadMagic, which includes a bare "QGT1" body),
/// torn or CRC-corrupt, and std::runtime_error on a malformed body.
[[nodiscard]] LoadedTensor load_tensor(const std::filesystem::path& path);

/// Incremental CSV writer (header row + data rows), for training curves.
class CsvWriter {
 public:
  CsvWriter(const std::filesystem::path& path, std::vector<std::string> columns);
  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Append one row; size must match the header column count.
  void append(std::span<const Real> row);

 private:
  std::FILE* file_ = nullptr;
  std::size_t columns_ = 0;
};

}  // namespace qugeo
