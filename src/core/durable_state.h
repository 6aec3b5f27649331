#ifndef EASEML_CORE_DURABLE_STATE_H_
#define EASEML_CORE_DURABLE_STATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "scheduler/user_state.h"

namespace easeml::core {

/// One shared GP prior, deduplicated by content: tenants reference it by
/// index into `DurableSelectorState::priors`, and a checkpoint's WAL prior
/// registry references the same entries instead of repeating the Gram. Doubles round-trip as bit
/// patterns, so MakeSharedGpPrior over the decoded Gram reproduces every
/// posterior bit-identically.
struct DurablePrior {
  int num_arms = 0;
  double noise_variance = 0.0;
  std::vector<double> mean;  // length num_arms
  std::vector<double> gram;  // row-major num_arms x num_arms
};

/// A tenant's compact belief: the observation history (which replays
/// bit-identically through SharedPriorGp::Observe) plus the packed t x t
/// Cholesky factor as an integrity witness — recovery replays the history
/// and fails with DataLoss when the replayed factor's bits disagree.
/// Empty (prior_id == -1) for retired tenants, whose belief was released;
/// the checkpoint format writes no belief block for them at all.
struct DurableBelief {
  int prior_id = -1;
  std::vector<int> arms;
  std::vector<double> rewards;
  std::vector<double> chol;  // packed lower triangle, row i at i*(i+1)/2
};

/// One tenant. A retired tenant is a tombstone: `user` carries only its id,
/// arm count, rounds served, best reward and consumed cost (see
/// `scheduler::DurableUserState`), and `belief` is empty, so a departed
/// tenant costs O(1) in memory and in every checkpoint (format version 2,
/// wal/checkpoint.h; version-1 checkpoints are not read, recovery replays
/// the log instead).
struct DurableTenant {
  scheduler::DurableUserState user;
  DurableBelief belief;
};

/// Complete serializable engine state, captured quiesced and restored into
/// a freshly created engine. "Complete" is load-bearing: the recovery
/// battery compares two engines by encoding this struct from each and
/// demanding equal bytes, so any field that can diverge must be here.
struct DurableSelectorState {
  struct Ticket {
    int64_t id = -1;
    int tenant = -1;
    int model = -1;
  };

  std::vector<DurablePrior> priors;
  std::vector<DurableTenant> tenants;  // index == tenant id
  std::vector<int> best_model;         // parallel to tenants, -1 = none
  std::vector<Ticket> in_flight;       // ascending ticket id
  int64_t next_ticket = 0;
  int round = 0;
  std::string scheduler_state;  // SchedulerPolicy::SaveDurable blob

  /// Log position at capture time (zero when no WAL is attached): replay
  /// applies exactly the records with epoch > wal_epoch, starting at
  /// wal_offset.
  int64_t wal_epoch = 0;
  int64_t wal_offset = 0;
};

}  // namespace easeml::core

#endif  // EASEML_CORE_DURABLE_STATE_H_
