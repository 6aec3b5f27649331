#include "scheduler/random_scheduler.h"

#include "common/binary_io.h"
#include "scheduler/candidate_index.h"

namespace easeml::scheduler {

Result<int> RandomScheduler::PickUser(const std::vector<UserState>& users,
                                      int round) {
  (void)round;
  const std::vector<int> active = ActiveUsers(users);
  if (active.empty()) {
    return Status::FailedPrecondition("Random: all users exhausted");
  }
  return active[rng_.UniformInt(0, static_cast<int>(active.size()) - 1)];
}

Result<int> RandomScheduler::PickUserIndexed(
    const std::vector<UserState>& users, int round,
    const CandidateIndex& index) {
  (void)round;
  // The scan draws active[j] from the ascending active list. The
  // index recovers the same user without materializing the list: the
  // schedulable total comes off the root (one UniformInt — the RNG stream
  // is identical), and the j-th schedulable id in ascending order is the
  // smallest id whose prefix rank reaches j+1, found by binary search over
  // the id space with O(log T) rank queries.
  const int total = index.Root().cnt_schedulable;
  if (total == 0) {
    return Status::FailedPrecondition("Random: all users exhausted");
  }
  const int j = rng_.UniformInt(0, total - 1);
  int lo = 0;
  int hi = static_cast<int>(users.size()) - 1;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (index.CountSchedulableLeq(mid) >= j + 1) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}


void RandomScheduler::SaveDurable(std::string* out) const {
  PutString(out, rng_.SaveState());
}

Status RandomScheduler::LoadDurable(std::string_view* in) {
  std::string state;
  EASEML_RETURN_NOT_OK(GetString(in, &state));
  return rng_.LoadState(state);
}

}  // namespace easeml::scheduler
