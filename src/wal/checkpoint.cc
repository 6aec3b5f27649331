#include "wal/checkpoint.h"

#include <utility>

#include "common/binary_io.h"
#include "common/crc32.h"
#include "wal/record.h"

namespace easeml::wal {

namespace {

constexpr std::string_view kMagic = "EZCKPT01";
constexpr uint32_t kFormatVersion = 1;

void EncodeDurableUser(std::string* out, const scheduler::DurableUserState& u) {
  PutI32(out, u.user_id);
  PutDoubleVec(out, u.costs);
  PutBoolVec(out, u.played);
  PutI32(out, u.num_played);
  PutI32(out, u.rounds_served);
  PutBoolVec(out, u.in_flight);
  PutDoubleVec(out, u.in_flight_ucb);
  PutI32(out, u.num_in_flight);
  PutI32(out, u.max_in_flight);
  PutU8(out, u.retired ? 1 : 0);
  PutDouble(out, u.best_reward);
  PutDouble(out, u.last_reward);
  PutDouble(out, u.empirical_bound);
  PutDouble(out, u.min_empirical_ucb);
  PutDouble(out, u.consumed_cost);
}

Status DecodeDurableUser(std::string_view* in, scheduler::DurableUserState* u) {
  EASEML_RETURN_NOT_OK(GetI32(in, &u->user_id));
  EASEML_RETURN_NOT_OK(GetDoubleVec(in, &u->costs));
  EASEML_RETURN_NOT_OK(GetBoolVec(in, &u->played));
  EASEML_RETURN_NOT_OK(GetI32(in, &u->num_played));
  EASEML_RETURN_NOT_OK(GetI32(in, &u->rounds_served));
  EASEML_RETURN_NOT_OK(GetBoolVec(in, &u->in_flight));
  EASEML_RETURN_NOT_OK(GetDoubleVec(in, &u->in_flight_ucb));
  EASEML_RETURN_NOT_OK(GetI32(in, &u->num_in_flight));
  EASEML_RETURN_NOT_OK(GetI32(in, &u->max_in_flight));
  uint8_t retired = 0;
  EASEML_RETURN_NOT_OK(GetU8(in, &retired));
  if (retired > 1) return Status::DataLoss("checkpoint: bad retired flag");
  u->retired = retired != 0;
  EASEML_RETURN_NOT_OK(GetDouble(in, &u->best_reward));
  EASEML_RETURN_NOT_OK(GetDouble(in, &u->last_reward));
  EASEML_RETURN_NOT_OK(GetDouble(in, &u->empirical_bound));
  EASEML_RETURN_NOT_OK(GetDouble(in, &u->min_empirical_ucb));
  EASEML_RETURN_NOT_OK(GetDouble(in, &u->consumed_cost));
  return Status::OK();
}

}  // namespace

std::string LogPath(const std::string& dir) { return dir + "/wal.log"; }

std::string CheckpointPath(const std::string& dir) {
  return dir + "/checkpoint";
}

void EncodeDurableSelectorState(std::string* out,
                                const core::DurableSelectorState& s) {
  PutU32(out, static_cast<uint32_t>(s.priors.size()));
  for (const core::DurablePrior& p : s.priors) EncodeDurablePrior(out, p);
  PutU32(out, static_cast<uint32_t>(s.tenants.size()));
  for (const core::DurableTenant& t : s.tenants) {
    EncodeDurableUser(out, t.user);
    PutI32(out, t.belief.prior_id);
    PutI32Vec(out, t.belief.arms);
    PutDoubleVec(out, t.belief.rewards);
    PutDoubleVec(out, t.belief.chol);
  }
  PutI32Vec(out, s.best_model);
  PutU32(out, static_cast<uint32_t>(s.in_flight.size()));
  for (const core::DurableSelectorState::Ticket& t : s.in_flight) {
    PutI64(out, t.id);
    PutI32(out, t.tenant);
    PutI32(out, t.model);
  }
  PutI64(out, s.next_ticket);
  PutI32(out, s.round);
  PutString(out, s.scheduler_state);
  PutI64(out, s.wal_epoch);
  PutI64(out, s.wal_offset);
}

Status DecodeDurableSelectorState(std::string_view* in,
                                  core::DurableSelectorState* s) {
  uint32_t n = 0;
  EASEML_RETURN_NOT_OK(GetU32(in, &n));
  s->priors.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    EASEML_RETURN_NOT_OK(DecodeDurablePrior(in, &s->priors[i]));
  }
  EASEML_RETURN_NOT_OK(GetU32(in, &n));
  s->tenants.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    core::DurableTenant& t = s->tenants[i];
    EASEML_RETURN_NOT_OK(DecodeDurableUser(in, &t.user));
    EASEML_RETURN_NOT_OK(GetI32(in, &t.belief.prior_id));
    EASEML_RETURN_NOT_OK(GetI32Vec(in, &t.belief.arms));
    EASEML_RETURN_NOT_OK(GetDoubleVec(in, &t.belief.rewards));
    EASEML_RETURN_NOT_OK(GetDoubleVec(in, &t.belief.chol));
  }
  EASEML_RETURN_NOT_OK(GetI32Vec(in, &s->best_model));
  EASEML_RETURN_NOT_OK(GetU32(in, &n));
  s->in_flight.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    core::DurableSelectorState::Ticket& t = s->in_flight[i];
    EASEML_RETURN_NOT_OK(GetI64(in, &t.id));
    EASEML_RETURN_NOT_OK(GetI32(in, &t.tenant));
    EASEML_RETURN_NOT_OK(GetI32(in, &t.model));
  }
  EASEML_RETURN_NOT_OK(GetI64(in, &s->next_ticket));
  EASEML_RETURN_NOT_OK(GetI32(in, &s->round));
  EASEML_RETURN_NOT_OK(GetString(in, &s->scheduler_state));
  EASEML_RETURN_NOT_OK(GetI64(in, &s->wal_epoch));
  EASEML_RETURN_NOT_OK(GetI64(in, &s->wal_offset));
  return Status::OK();
}

std::string EncodeCheckpoint(const Checkpoint& cp) {
  std::string body;
  EncodeDurableSelectorState(&body, cp.state);
  PutU32(&body, static_cast<uint32_t>(cp.wal_priors.size()));
  for (const core::DurablePrior& p : cp.wal_priors) {
    EncodeDurablePrior(&body, p);
  }
  PutU8(&body, cp.has_obs ? 1 : 0);
  if (cp.has_obs) {
    PutU64(&body, cp.obs.fleet_epoch);
    PutI64(&body, cp.obs.totals.tenants);
    PutI64(&body, cp.obs.totals.retired);
    PutI64(&body, cp.obs.totals.schedulable);
    PutI64(&body, cp.obs.totals.uninitialized);
    PutI64(&body, cp.obs.totals.in_flight);
    PutI64(&body, cp.obs.totals.rounds);
  }
  std::string out;
  out.reserve(kMagic.size() + 12 + body.size());
  out.append(kMagic);
  PutU32(&out, kFormatVersion);
  PutU32(&out, MaskCrc32(Crc32(body)));
  PutU32(&out, static_cast<uint32_t>(body.size()));
  out.append(body);
  return out;
}

Result<Checkpoint> DecodeCheckpoint(std::string_view bytes) {
  if (bytes.size() < kMagic.size() + 12 ||
      bytes.substr(0, kMagic.size()) != kMagic) {
    return Status::DataLoss("checkpoint: bad magic");
  }
  bytes.remove_prefix(kMagic.size());
  uint32_t version = 0;
  uint32_t masked_crc = 0;
  uint32_t len = 0;
  EASEML_RETURN_NOT_OK(GetU32(&bytes, &version));
  EASEML_RETURN_NOT_OK(GetU32(&bytes, &masked_crc));
  EASEML_RETURN_NOT_OK(GetU32(&bytes, &len));
  if (version != kFormatVersion) {
    return Status::DataLoss("checkpoint: unknown format version " +
                            std::to_string(version));
  }
  if (bytes.size() != len) {
    return Status::DataLoss("checkpoint: body length mismatch");
  }
  if (Crc32(bytes) != UnmaskCrc32(masked_crc)) {
    return Status::DataLoss("checkpoint: body CRC mismatch");
  }
  Checkpoint cp;
  EASEML_RETURN_NOT_OK(DecodeDurableSelectorState(&bytes, &cp.state));
  uint32_t n = 0;
  EASEML_RETURN_NOT_OK(GetU32(&bytes, &n));
  cp.wal_priors.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    EASEML_RETURN_NOT_OK(DecodeDurablePrior(&bytes, &cp.wal_priors[i]));
  }
  uint8_t has_obs = 0;
  EASEML_RETURN_NOT_OK(GetU8(&bytes, &has_obs));
  if (has_obs > 1) return Status::DataLoss("checkpoint: bad obs flag");
  cp.has_obs = has_obs != 0;
  if (cp.has_obs) {
    EASEML_RETURN_NOT_OK(GetU64(&bytes, &cp.obs.fleet_epoch));
    EASEML_RETURN_NOT_OK(GetI64(&bytes, &cp.obs.totals.tenants));
    EASEML_RETURN_NOT_OK(GetI64(&bytes, &cp.obs.totals.retired));
    EASEML_RETURN_NOT_OK(GetI64(&bytes, &cp.obs.totals.schedulable));
    EASEML_RETURN_NOT_OK(GetI64(&bytes, &cp.obs.totals.uninitialized));
    EASEML_RETURN_NOT_OK(GetI64(&bytes, &cp.obs.totals.in_flight));
    EASEML_RETURN_NOT_OK(GetI64(&bytes, &cp.obs.totals.rounds));
  }
  if (!bytes.empty()) {
    return Status::DataLoss("checkpoint: trailing bytes after body");
  }
  return cp;
}

Status WriteCheckpoint(FileSystem* fs, const std::string& dir,
                       const Checkpoint& cp) {
  const std::string tmp = CheckpointPath(dir) + ".tmp";
  {
    EASEML_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                            fs->OpenAppendable(tmp));
    // The tmp name may hold debris from a previous crashed cut; appending
    // to it would corrupt the frame, so start clean.
    EASEML_RETURN_NOT_OK(fs->Truncate(tmp, 0));
    EASEML_RETURN_NOT_OK(file->Append(EncodeCheckpoint(cp)));
    EASEML_RETURN_NOT_OK(file->Sync());
    EASEML_RETURN_NOT_OK(file->Close());
  }
  EASEML_RETURN_NOT_OK(fs->Rename(tmp, CheckpointPath(dir)));
  return fs->SyncDir(dir);
}

Result<std::optional<Checkpoint>> ReadCheckpoint(FileSystem* fs,
                                                 const std::string& dir) {
  const std::string path = CheckpointPath(dir);
  EASEML_ASSIGN_OR_RETURN(const bool exists, fs->Exists(path));
  if (!exists) return std::optional<Checkpoint>();
  EASEML_ASSIGN_OR_RETURN(const std::string bytes, fs->ReadFile(path));
  Result<Checkpoint> cp = DecodeCheckpoint(bytes);
  if (!cp.ok()) {
    // A checkpoint that fails validation is ignored, not fatal: the log is
    // never truncated past its torn tail, so a full replay from offset 0
    // reproduces everything the checkpoint summarized.
    return std::optional<Checkpoint>();
  }
  return std::optional<Checkpoint>(std::move(*cp));
}

Status CutCheckpoint(FileSystem* fs, const std::string& dir, SelectorWal* wal,
                     const core::MultiTenantSelector& selector,
                     const obs::SnapshotPlane* plane) {
  EASEML_RETURN_NOT_OK(wal->SealToBlockBoundary());
  Checkpoint cp;
  EASEML_ASSIGN_OR_RETURN(cp.state, selector.CaptureDurableState());
  // Everything the checkpoint references (records up to state.wal_offset)
  // must be durable BEFORE the checkpoint publishes, or a crash between
  // the two would leave a checkpoint pointing past the log's end. Hard
  // sync: kDeferred's per-ack Sync defers I/O, a checkpoint cannot.
  EASEML_RETURN_NOT_OK(wal->SyncHard());
  for (const auto& prior : wal->RegisteredPriors()) {
    core::DurablePrior p;
    p.num_arms = prior->num_arms();
    p.noise_variance = prior->noise_variance;
    p.mean = prior->mean;
    p.gram = prior->gram.data();
    cp.wal_priors.push_back(std::move(p));
  }
  if (plane != nullptr) {
    const std::shared_ptr<const obs::FleetSnapshot> snapshot =
        plane->Snapshot();
    cp.has_obs = true;
    cp.obs.fleet_epoch = snapshot->epoch;
    cp.obs.totals = snapshot->totals;
  }
  return WriteCheckpoint(fs, dir, cp);
}

}  // namespace easeml::wal
