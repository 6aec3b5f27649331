#ifndef EASEML_WAL_CHECKPOINT_H_
#define EASEML_WAL_CHECKPOINT_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/durable_state.h"
#include "core/multi_tenant_selector.h"
#include "obs/snapshot.h"
#include "wal/selector_wal.h"

namespace easeml::wal {

/// File layout inside a durability directory.
std::string LogPath(const std::string& dir);
std::string CheckpointPath(const std::string& dir);

/// Advisory observability metadata cut from the snapshot plane's published
/// snapshot at checkpoint time. The published snapshot LAGS the engine (it
/// publishes on an interval), so recovery can only cross-check inequalities:
/// the snapshot totals must not be AHEAD of the restored engine state —
/// if they are, the checkpoint mixes generations and is rejected.
struct CheckpointObsMetadata {
  uint64_t fleet_epoch = 0;
  obs::FleetAggregates totals;
};

/// A checkpoint: the complete quiesced engine state, the WAL's prior
/// registry at the cut (so records replayed ON TOP of the checkpoint can
/// resolve prior ids whose registration records lie before it), and the
/// optional obs metadata. `state.wal_epoch`/`state.wal_offset` name the
/// exact log suffix replay applies.
struct Checkpoint {
  core::DurableSelectorState state;
  std::vector<core::DurablePrior> wal_priors;  // index == WAL prior id
  bool has_obs = false;
  CheckpointObsMetadata obs;
};

/// Bit-exact encoding of the engine state (all doubles as IEEE-754 bit
/// patterns). Public because the recovery battery compares two engines by
/// encoding each one's CaptureDurableState and demanding equal bytes.
void EncodeDurableSelectorState(std::string* out,
                                const core::DurableSelectorState& s);
Status DecodeDurableSelectorState(std::string_view* in,
                                  core::DurableSelectorState* s);

/// Whole-file encoding: magic "EZCKPT01", format version, CRC-framed body.
std::string EncodeCheckpoint(const Checkpoint& cp);
Result<Checkpoint> DecodeCheckpoint(std::string_view bytes);

/// Durably publishes `cp` in `dir`: write to a temporary name, sync,
/// atomically rename over the final name, sync the directory. A crash at
/// any point leaves either the previous checkpoint or this one.
Status WriteCheckpoint(FileSystem* fs, const std::string& dir,
                       const Checkpoint& cp);

/// The current checkpoint, nullopt when none exists OR the file fails
/// validation (magic/version/CRC/decode) — a corrupt checkpoint is not
/// fatal, recovery falls back to replaying the log from the beginning.
Result<std::optional<Checkpoint>> ReadCheckpoint(FileSystem* fs,
                                                 const std::string& dir);

/// Cuts a checkpoint of the running engine: seals the log to a block
/// boundary, captures the quiesced engine state (the capture embeds the
/// sealed log position), syncs the log so every byte the checkpoint
/// references is durable first, and publishes atomically. `plane` (may be
/// null) contributes the advisory obs metadata from its published blocks.
Status CutCheckpoint(FileSystem* fs, const std::string& dir, SelectorWal* wal,
                     const core::MultiTenantSelector& selector,
                     const obs::SnapshotPlane* plane);

}  // namespace easeml::wal

#endif  // EASEML_WAL_CHECKPOINT_H_
