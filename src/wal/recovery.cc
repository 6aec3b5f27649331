#include "wal/recovery.h"

#include <utility>
#include <vector>

#include "gp/shared_prior_gp.h"
#include "linalg/matrix.h"
#include "wal/record.h"

namespace easeml::wal {

namespace {

Result<std::shared_ptr<const gp::SharedGpPrior>> RebuildPrior(
    const core::DurablePrior& p) {
  EASEML_ASSIGN_OR_RETURN(
      linalg::Matrix gram,
      linalg::Matrix::FromRowMajor(p.num_arms, p.num_arms, p.gram));
  return gp::MakeSharedGpPrior(std::move(gram), p.noise_variance, p.mean);
}

bool SamePriorPayload(const gp::SharedGpPrior& have,
                      const core::DurablePrior& logged) {
  return have.num_arms() == logged.num_arms &&
         have.noise_variance == logged.noise_variance &&
         have.mean == logged.mean && have.gram.data() == logged.gram;
}

Status ReplayFailure(const Record& record, const Status& status) {
  return Status::DataLoss(
      "wal replay: " + RecordTypeName(record.type) + " record at offset " +
      std::to_string(record.offset) + " (epoch " +
      std::to_string(record.epoch) +
      ") was acknowledged but does not replay: " + status.ToString());
}

/// The obs metadata is cut from the published snapshot, which LAGS the
/// engine — so its totals can run BEHIND the restored state but never
/// ahead of it. Ahead means the checkpoint mixes two generations of
/// state (e.g. a snapshot from a different run) and must be rejected.
Status CrossCheckObs(const Checkpoint& cp) {
  if (!cp.has_obs) return Status::OK();
  int64_t rounds = 0;
  for (const core::DurableTenant& t : cp.state.tenants) {
    rounds += t.user.rounds_served;
  }
  if (cp.obs.totals.rounds > rounds ||
      cp.obs.totals.tenants > static_cast<int64_t>(cp.state.tenants.size())) {
    return Status::DataLoss(
        "checkpoint: obs snapshot totals (tenants=" +
        std::to_string(cp.obs.totals.tenants) +
        ", rounds=" + std::to_string(cp.obs.totals.rounds) +
        ") are AHEAD of the engine state (tenants=" +
        std::to_string(cp.state.tenants.size()) +
        ", rounds=" + std::to_string(rounds) +
        ") — the checkpoint mixes generations");
  }
  return Status::OK();
}

}  // namespace

Result<RecoveredSelector> OpenOrRecover(FileSystem* fs, const std::string& dir,
                                        core::SelectorOptions options,
                                        SelectorWalOptions wal_options) {
  if (options.wal != nullptr) {
    return Status::InvalidArgument(
        "OpenOrRecover: options.wal must be null — the recovered WAL is "
        "wired in here");
  }
  EASEML_RETURN_NOT_OK(fs->CreateDir(dir));

  RecoveredSelector out;
  out.wal = SelectorWal::CreateSuspended(fs, LogPath(dir), wal_options);
  options.wal = out.wal.get();
  // Replay drives the engine's PUBLIC API, re-running the exact
  // validation the original run passed; the WAL is suspended, so the
  // hooks inside those calls do not double-log.
  EASEML_ASSIGN_OR_RETURN(core::MultiTenantSelector selector,
                          core::MultiTenantSelector::Create(options));
  out.selector =
      std::make_unique<core::MultiTenantSelector>(std::move(selector));

  EASEML_ASSIGN_OR_RETURN(std::optional<Checkpoint> checkpoint,
                          ReadCheckpoint(fs, dir));

  std::string log;
  EASEML_ASSIGN_OR_RETURN(const bool log_exists, fs->Exists(LogPath(dir)));
  if (log_exists) {
    EASEML_ASSIGN_OR_RETURN(log, fs->ReadFile(LogPath(dir)));
  }

  // Prior registry for replay: WAL prior id -> shared prior. Seeded from
  // the checkpoint (whose wal_priors snapshot the registry at the cut, so
  // ADD_TENANT records after it resolve ids registered before it) and
  // extended by replayed REGISTER_PRIOR records.
  std::vector<std::shared_ptr<const gp::SharedGpPrior>> registry;
  int64_t start_epoch = 0;
  int64_t start_offset = 0;

  if (checkpoint.has_value() &&
      checkpoint->state.wal_offset > static_cast<int64_t>(log.size())) {
    // The checkpoint references log bytes that never became durable (a
    // crash between publishing it and syncing the log cannot happen —
    // CutCheckpoint syncs first — but a copied-around directory can get
    // here). The log is never truncated except at its torn tail, so full
    // replay from 0 reproduces everything; ignore the checkpoint.
    checkpoint.reset();
  }

  if (checkpoint.has_value()) {
    EASEML_RETURN_NOT_OK(CrossCheckObs(*checkpoint));
    EASEML_RETURN_NOT_OK(out.selector->RestoreDurableState(checkpoint->state));
    registry.reserve(checkpoint->wal_priors.size());
    for (const core::DurablePrior& p : checkpoint->wal_priors) {
      EASEML_ASSIGN_OR_RETURN(auto prior, RebuildPrior(p));
      registry.push_back(std::move(prior));
    }
    start_epoch = checkpoint->state.wal_epoch;
    start_offset = checkpoint->state.wal_offset;
    out.stats.used_checkpoint = true;
    out.stats.checkpoint_epoch = start_epoch;
  }

  EASEML_ASSIGN_OR_RETURN(const LogScan scan,
                          ScanLog(log, start_offset, start_epoch));

  for (const Record& record : scan.records) {
    switch (record.type) {
      case RecordType::kPad:
        continue;
      case RecordType::kRegisterPrior: {
        RegisterPriorBody b;
        EASEML_RETURN_NOT_OK(DecodeRegisterPrior(record.body, &b));
        if (b.prior_id == static_cast<int>(registry.size())) {
          EASEML_ASSIGN_OR_RETURN(auto prior, RebuildPrior(b.prior));
          registry.push_back(std::move(prior));
        } else if (b.prior_id >= 0 &&
                   b.prior_id < static_cast<int>(registry.size())) {
          // Benign: the checkpoint's registry snapshot ran AHEAD of its
          // log position (the prior registered between the seal and the
          // capture), so the record re-describes a seeded entry. Verify
          // it is really the same prior and keep the existing object.
          if (!SamePriorPayload(*registry[b.prior_id], b.prior)) {
            return Status::DataLoss(
                "wal replay: register-prior record at offset " +
                std::to_string(record.offset) + " re-registers id " +
                std::to_string(b.prior_id) + " with a DIFFERENT prior");
          }
        } else {
          return Status::DataLoss(
              "wal replay: register-prior record at offset " +
              std::to_string(record.offset) + " carries id " +
              std::to_string(b.prior_id) + " but the registry holds " +
              std::to_string(registry.size()) + " priors");
        }
        break;
      }
      case RecordType::kAddTenant: {
        AddTenantBody b;
        EASEML_RETURN_NOT_OK(DecodeAddTenant(record.body, &b));
        if (b.prior_id < 0 || b.prior_id >= static_cast<int>(registry.size())) {
          return Status::DataLoss(
              "wal replay: add-tenant record at offset " +
              std::to_string(record.offset) + " names unregistered prior id " +
              std::to_string(b.prior_id));
        }
        Result<int> tenant =
            out.selector->AddTenant(registry[b.prior_id], b.costs);
        if (!tenant.ok()) return ReplayFailure(record, tenant.status());
        if (*tenant != b.tenant) {
          return Status::DataLoss(
              "wal replay: add-tenant record at offset " +
              std::to_string(record.offset) + " logged tenant id " +
              std::to_string(b.tenant) + " but replay assigned " +
              std::to_string(*tenant) + " — determinism violation");
        }
        break;
      }
      case RecordType::kRemoveTenant: {
        RemoveTenantBody b;
        EASEML_RETURN_NOT_OK(DecodeRemoveTenant(record.body, &b));
        const Status status = out.selector->RemoveTenant(b.tenant);
        if (!status.ok()) return ReplayFailure(record, status);
        break;
      }
      case RecordType::kNext: {
        NextBody b;
        EASEML_RETURN_NOT_OK(DecodeNext(record.body, &b));
        Result<core::MultiTenantSelector::Assignment> a = out.selector->Next();
        if (!a.ok()) return ReplayFailure(record, a.status());
        if (a->tenant != b.tenant || a->model != b.model ||
            a->id != b.ticket) {
          return Status::DataLoss(
              "wal replay: next record at offset " +
              std::to_string(record.offset) + " logged (tenant " +
              std::to_string(b.tenant) + ", model " + std::to_string(b.model) +
              ", ticket " + std::to_string(b.ticket) +
              ") but replay picked (tenant " + std::to_string(a->tenant) +
              ", model " + std::to_string(a->model) + ", ticket " +
              std::to_string(a->id) + ") — determinism violation");
        }
        break;
      }
      case RecordType::kReport: {
        ReportBody b;
        EASEML_RETURN_NOT_OK(DecodeReport(record.body, &b));
        core::MultiTenantSelector::Assignment a;
        a.tenant = b.tenant;
        a.model = b.model;
        a.id = b.ticket;
        const Status status = out.selector->Report(a, b.accuracy);
        if (!status.ok()) return ReplayFailure(record, status);
        break;
      }
      case RecordType::kCancel: {
        CancelBody b;
        EASEML_RETURN_NOT_OK(DecodeCancel(record.body, &b));
        core::MultiTenantSelector::Assignment a;
        a.tenant = b.tenant;
        a.model = b.model;
        a.id = b.ticket;
        const Status status = out.selector->Cancel(a);
        if (!status.ok()) return ReplayFailure(record, status);
        break;
      }
    }
    ++out.stats.replayed_records;
  }

  if (scan.truncated) {
    // Tail repair: everything from valid_bytes on is a torn write that
    // was never acknowledged. Cut it so the resumed log appends from a
    // clean record boundary.
    EASEML_RETURN_NOT_OK(fs->Truncate(LogPath(dir), scan.valid_bytes));
    out.stats.truncated_bytes =
        static_cast<int64_t>(log.size()) - scan.valid_bytes;
    out.stats.truncate_reason = scan.truncate_reason;
  }

  EASEML_RETURN_NOT_OK(
      out.wal->Resume(scan.last_epoch, scan.valid_bytes, std::move(registry)));
  out.stats.last_epoch = scan.last_epoch;
  out.stats.log_bytes = scan.valid_bytes;
  return out;
}

}  // namespace easeml::wal
