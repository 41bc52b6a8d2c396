// Trained-model and training-run persistence.
//
// Two artifact kinds share the integrity-checked framed container from
// common/io (atomic temp+fsync+rename writes, CRC-32 payload guard):
//
//  * Model checkpoints (save_model/load_model): the flat parameter vector
//    plus a structural fingerprint of the model configuration, so a loaded
//    checkpoint can never be silently applied to a mismatched
//    architecture.
//  * Training checkpoints (TrainCheckpoint): everything a killed training
//    run needs to resume bit-identically — parameters, the full Adam
//    optimizer state (nn/optimizer AdamFlat: t, m, v), the shuffle-RNG
//    state, the epoch counter and curve so far, plus the model fingerprint
//    and a training-config fingerprint guarding against resuming under
//    different hyperparameters.
//
// Failure taxonomy: every way a checkpoint file can be bad is detected and
// reported distinctly (CheckpointError::fault()), so the trainer's resume
// path can degrade gracefully — skip the bad slot, fall back to the next
// newest valid one — while tests pin the exact failure mode.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "core/model.h"
#include "core/trainer.h"

namespace qugeo::core {

/// Structural fingerprint (qubits per group, batch, blocks, decoder, map
/// shape) — two models with equal fingerprints accept each other's params.
[[nodiscard]] std::uint64_t model_fingerprint(const ModelConfig& config);

/// Hyperparameter fingerprint of a training run (epochs, initial lr,
/// shuffle seed, accumulation granularity). Resuming a checkpoint written
/// under a different fingerprint would silently change the optimization
/// trajectory, so it is rejected as kConfigMismatch instead.
[[nodiscard]] std::uint64_t train_fingerprint(const TrainConfig& config);

/// Write the model's parameters (+fingerprint) to `path` (atomic, CRC'd).
void save_model(const std::filesystem::path& path, const QuGeoModel& model);

/// Load parameters into `model`. Throws std::runtime_error naming the
/// path, the expected vs stored fingerprint, and the parameter counts on
/// any mismatch.
void load_model(const std::filesystem::path& path, QuGeoModel& model);

// ------------------------------------------------- training checkpoints --

/// The distinct ways a checkpoint file can be unusable. Every kind is
/// detected separately and carries its own message; the resume path
/// treats all of them as "skip this slot" while tests (and operators)
/// see exactly what was wrong.
enum class CheckpointFault : std::uint8_t {
  kMissing,              ///< slot file cannot be opened
  kBadMagic,             ///< not a framed checkpoint file at all
  kTruncated,            ///< torn write: shorter than its header claims
  kCrcMismatch,          ///< payload bytes corrupted on disk
  kBadVersion,           ///< written by an incompatible format revision
  kMalformed,            ///< frame is intact but the fields are inconsistent
  kFingerprintMismatch,  ///< checkpoint belongs to a different architecture
  kConfigMismatch,       ///< different training hyperparameters
};

/// Human-readable name of a CheckpointFault ("crc-mismatch", ...).
[[nodiscard]] const char* checkpoint_fault_name(CheckpointFault fault) noexcept;

/// Typed checkpoint failure: fatal for the file it names (the caller may
/// still degrade to another slot). The message always includes the path.
class CheckpointError : public FatalError {
 public:
  CheckpointError(CheckpointFault fault, std::string message)
      : FatalError(std::move(message)), fault_(fault) {}
  [[nodiscard]] CheckpointFault fault() const noexcept { return fault_; }

 private:
  CheckpointFault fault_;
};

/// Complete resumable training state. `version` is the on-disk format
/// revision; bumping it invalidates older files loudly (kBadVersion)
/// instead of misparsing them.
struct TrainCheckpoint {
  static constexpr std::uint32_t kVersion = 1;

  std::uint64_t model_fp = 0;        ///< model_fingerprint of the run
  std::uint64_t train_fp = 0;        ///< train_fingerprint of the run
  std::uint64_t epochs_completed = 0;
  RngState shuffle_rng;              ///< state AFTER the last epoch's draws
  std::uint64_t adam_t = 0;          ///< Adam update count
  std::vector<Real> params;          ///< flat parameter vector
  std::vector<Real> adam_m, adam_v;  ///< Adam moment estimates
  std::vector<EpochRecord> curve;    ///< records for epochs [0, completed)
};

/// Path of rotation slot `slot` for a checkpoint stem:
/// `<stem>.<slot>`.
[[nodiscard]] std::filesystem::path checkpoint_slot_path(
    const std::filesystem::path& stem, std::size_t slot);

/// Atomically persist a checkpoint (framed, CRC-guarded). The `curve`
/// size must equal `epochs_completed` and the moment sizes must match
/// `params`; violations throw std::invalid_argument before any IO.
void save_train_checkpoint(const std::filesystem::path& path,
                           const TrainCheckpoint& checkpoint);

/// Load and verify one checkpoint file. Throws CheckpointError with the
/// precise fault kind; never returns a partially-parsed checkpoint.
[[nodiscard]] TrainCheckpoint load_train_checkpoint(
    const std::filesystem::path& path);

/// Scan the rotation `<stem>.<0..keep)` for the newest valid checkpoint
/// matching both fingerprints. Invalid slots — torn, corrupt, mismatched —
/// are skipped with a fault::report_degradation record naming the slot and
/// fault; nullopt when no slot is usable (the caller starts from scratch).
[[nodiscard]] std::optional<TrainCheckpoint> find_resume_checkpoint(
    const std::filesystem::path& stem, std::size_t keep,
    std::uint64_t expected_model_fp, std::uint64_t expected_train_fp);

}  // namespace qugeo::core
