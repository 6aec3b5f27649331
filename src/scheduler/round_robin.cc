#include "scheduler/round_robin.h"

#include "common/binary_io.h"
#include "scheduler/candidate_index.h"

namespace easeml::scheduler {

Result<int> RoundRobinScheduler::PickUser(const std::vector<UserState>& users,
                                          int round) {
  (void)round;
  const int n = static_cast<int>(users.size());
  if (n == 0) return Status::InvalidArgument("RoundRobin: no users");
  for (int step = 0; step < n; ++step) {
    const int candidate = (cursor_ + step) % n;
    if (users[candidate].Schedulable()) {
      cursor_ = (candidate + 1) % n;
      return candidate;
    }
  }
  return Status::FailedPrecondition("RoundRobin: all users exhausted");
}

Result<int> RoundRobinScheduler::PickUserIndexed(
    const std::vector<UserState>& users, int round,
    const CandidateIndex& index) {
  (void)round;
  const int n = static_cast<int>(users.size());
  if (n == 0) return Status::InvalidArgument("RoundRobin: no users");
  // The cursor is a QUERY parameter, not leaf state: the cyclically
  // closest schedulable user is the lowest schedulable id at or after the
  // cursor (an O(log T) suffix descent), else the overall minimum (root
  // read) — the scan's wrap-around. The cursor advance is identical.
  int winner = index.MinSchedulableAtLeast(cursor_);
  if (winner == CandidateIndex::kNone) winner = index.Root().min_schedulable;
  if (winner == CandidateIndex::kNone) {
    return Status::FailedPrecondition("RoundRobin: all users exhausted");
  }
  cursor_ = (winner + 1) % n;  // same cursor advance as PickUser
  return winner;
}


void RoundRobinScheduler::SaveDurable(std::string* out) const {
  PutI32(out, cursor_);
}

Status RoundRobinScheduler::LoadDurable(std::string_view* in) {
  return GetI32(in, &cursor_);
}

}  // namespace easeml::scheduler
