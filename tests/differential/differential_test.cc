// The differential harness: one seeded op generator, one reference (the
// scan engine: `MultiTenantSelector::Create`, index, WAL and observer off)
// and one lockstep runner, which applies each op to the reference and to
// every subject configuration and fails on the first disagreement in an
// assignment triple or a `Status::ToString()`, or in `ValidateIndex()` and
// the encoded `CaptureDurableState` bytes (WAL position zeroed) at every
// checkpoint, after every crash recovery and at the end. Each test runs a
// profile (a scenario shape of the generator) under the suite and test
// names its scenarios have always been tracked by.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/multi_tenant_selector.h"
#include "obs/fleet_observer.h"
#include "scheduler/scheduler_policy.h"
#include "shard/sharded_selector.h"
#include "wal/checkpoint.h"
#include "wal/fault_injection.h"
#include "wal/recovery.h"
#include "wal/wal_test_util.h"

namespace easeml::differential {
namespace {

using core::MultiTenantSelector;
using core::SchedulerKind;
using Assignment = MultiTenantSelector::Assignment;

constexpr SchedulerKind kAllKinds[] = {
    SchedulerKind::kHybrid, SchedulerKind::kGreedy, SchedulerKind::kRoundRobin,
    SchedulerKind::kRandom, SchedulerKind::kFcfs};
constexpr char kDir[] = "/d";

/// Ground-truth accuracy in (0, 1) from an integer hash, so every engine
/// and thread computes identical bits.
double Accuracy(int tenant, int model) {
  const uint64_t x = SplitMix64(static_cast<uint64_t>(tenant) * 1000003u +
                                static_cast<uint64_t>(model));
  return 0.05 + 0.9 * (static_cast<double>(x >> 11) * 0x1.0p-53);
}

std::vector<double> Costs(int tenant, int models) {
  std::vector<double> costs;
  for (int m = 0; m < models; ++m) {
    costs.push_back(1.0 + 0.25 * ((tenant + m) % models));
  }
  return costs;
}

// --- The configuration table -----------------------------------------------

enum class WalMode { kNone, kFsync, kDeferred };

struct Config {
  int shards = 1;
  bool index = false;
  WalMode wal = WalMode::kNone;
  bool observer = false;
};

std::string Label(const Config& c) {
  static const char* const kWal[] = {"", "/fsync", "/deferred"};
  return "N=" + std::to_string(c.shards) + (c.index ? "/index" : "/scan") +
         kWal[static_cast<int>(c.wal)] + (c.observer ? "/observed" : "");
}

/// The table rows `keep` accepts.
std::vector<Config> Rows(const std::function<bool(const Config&)>& keep) {
  using W = WalMode;
  static const Config kTable[] = {
      // Plain engines: every shard count, scan and index (N=3: fuzz).
      {1, false}, {1, true}, {2, false}, {2, true}, {3, true},
      {4, false}, {4, true}, {7, false}, {7, true},
      // Synced WAL, unobserved: the crash profile's rows.
      {1, false, W::kFsync}, {1, true, W::kFsync},
      {4, false, W::kFsync}, {4, true, W::kFsync},
      // With the rows above, every pair of values of (shards, index, WAL
      // tier, observer) occurs in some row.
      {1, true, W::kNone, true}, {2, false, W::kNone, true},
      {7, true, W::kNone, true}, {2, true, W::kFsync, true},
      {7, false, W::kFsync, true}, {1, false, W::kDeferred},
      {7, true, W::kDeferred}, {2, false, W::kDeferred, true},
      {4, true, W::kDeferred, true},
  };
  std::vector<Config> rows;
  for (const Config& c : kTable) {
    if (keep(c)) rows.push_back(c);
  }
  return rows;
}

bool Plain(const Config& c) { return c.wal == WalMode::kNone && !c.observer; }

// --- Ops and profiles ------------------------------------------------------

/// What a crash does to the bytes the WAL had not made durable.
enum class Scenario { kKill, kPowerLoss, kTornTail, kBitFlip };

struct Op {
  enum Kind { kNext, kReport, kCancel, kAddTenant, kRemoveTenant, kCheckpoint,
              kCrash };
  Kind kind = kNext;
  /// kReport/kCancel: the ticket handed back, valid or not. Once the
  /// reference accepted the op: kNext's assignment, kAddTenant's id.
  Assignment ticket;
  double accuracy = 0.0;  // kReport
  int tenant = -1;        // kRemoveTenant: victim; kAddTenant: expected id
  int shape = -1;         // kAddTenant: -1 default prior, else shared 0/1
  Scenario scenario = Scenario::kKill;  // kCrash
  /// kCrash: -1 crashes now; n >= 0 lets the next op run only n more file
  /// operations, then crashes (a mid-op death when the op needs more).
  int64_t fail_after = -1;
  uint64_t noise = 0;  // kCrash: picks the torn prefix or flipped bit
};

/// Relative weights of the random op draw.
struct Mix {
  int next = 0;
  int report = 0;      // any outstanding ticket, not the oldest
  int cancel = 0;
  int bad_ticket = 0;  // stale, duplicate, unknown, forged, non-finite
  int add = 0;
  int add_shared = 0;
  int remove = 0;      // live, in flight, removed, out of range
};

struct Profile {
  std::string name;
  int tenants = 0;  // added (default prior) before the first draw
  int models = 0;
  int devices = 1;
  uint64_t seed = 0;  // the RANDOM policy's; plus the kind, the generator's
  int max_ops = 0;    // draws after the initial tenants
  Mix mix;
  int max_adds = 0;
  int checkpoint_every = 0;  // 0: never
  /// 0: never. Needs WAL subjects; the last crash lands at least this
  /// many ops before the end.
  int crash_every = 0;
  /// Campaign driving: Next while the reference has dispatchable work, a
  /// drawn op otherwise; the run ends when nothing is in flight.
  bool fill_slots = false;
  /// >= 0: the i-th choice between two outstanding tickets takes
  /// outstanding[(choice_bits >> i) & 1] (ordering enumeration).
  int64_t choice_bits = -1;
  bool cost_aware = true;
};

// Mix order: next, report, cancel, bad_ticket, add, add_shared, remove.

/// Every device slot kept full, completions handed back in a seeded order
/// (one in ten a device failure returning its ticket) until exhaustion.
Profile Campaign(int devices, bool churn) {
  return {"campaign", churn ? 11 : 13, churn ? 4 : 5, devices, 2026,
          /*max_ops=*/100000, {0, 9, 1, 0, churn ? 1 : 0, 0, churn ? 2 : 0},
          /*max_adds=*/3, 0, 0, /*fill_slots=*/true};
}

/// 10k mixed events.
Profile Fuzz() {
  return {"fuzz", 12, 4, 3, 20260730, 10000, {40, 30, 10, 6, 4, 2, 8},
          /*max_adds=*/10000, /*checkpoint_every=*/2000};
}

/// D=8, completions in a permuted order with cancels, bad tickets, churn.
Profile OutOfOrder() {
  return {"out_of_order", 9, 5, 8, 4242, 700, {8, 8, 1, 1, 1, 0, 2},
          /*max_adds=*/4, /*checkpoint_every=*/97};
}

/// One completion ordering of a T=2, K=3, D=2 campaign.
Profile Orderings(uint32_t choice_bits) {
  return {"orderings", 2, 3, 2, 0, 1000, {0, 1}, 0, 0, 0,
          /*fill_slots=*/true, choice_bits, /*cost_aware=*/false};
}

/// Short churny runs on synced WALs, crashed every 20 ops; a crash at 20
/// or 60 may die inside the checkpoint that follows it.
Profile Crash(uint64_t seed) {
  return {"crash", 2, 3, 1, seed, 100, {30, 26, 5, 5, 4, 8, 5},
          /*max_adds=*/16, /*checkpoint_every=*/21, /*crash_every=*/20};
}

std::string Ticket(const Assignment& a) {
  return "(" + std::to_string(a.tenant) + "," + std::to_string(a.model) +
         ")#" + std::to_string(a.id);
}

std::string Describe(const Op& op) {
  static const char* const kKinds[] = {"Next",          "Report",
                                       "Cancel",        "AddTenant",
                                       "RemoveTenant#", "Checkpoint", "Crash"};
  static const char* const kScenarios[] = {"kill", "power-loss", "torn-tail",
                                           "bit-flip"};
  const std::string kind = kKinds[op.kind];
  if (op.kind == Op::kReport || op.kind == Op::kCancel) {
    return kind + Ticket(op.ticket);
  }
  if (op.kind == Op::kRemoveTenant) return kind + std::to_string(op.tenant);
  if (op.kind == Op::kCrash) {
    return kind + "/" + kScenarios[static_cast<int>(op.scenario)];
  }
  return kind;
}

// --- The generator ---------------------------------------------------------

/// Reads only the reference, and books tickets from the reference's
/// answers. The book is advisory: any op is legal to apply, and whether
/// the engines accept or refuse it is what the runner compares.
class Generator {
 public:
  Generator(const Profile& p, SchedulerKind kind)
      : p_(p), rng_(p.seed + static_cast<uint64_t>(kind)) {}

  std::optional<Op> Next(const MultiTenantSelector& ref) {
    if (setup_ < p_.tenants) {
      ++setup_;
      return Add(-1);
    }
    if (step_++ == p_.max_ops) return std::nullopt;
    Op op;
    if (p_.crash_every > 0 && step_ % p_.crash_every == 0 &&
        step_ + p_.crash_every <= p_.max_ops) {
      op.kind = Op::kCrash;
      op.scenario = static_cast<Scenario>((p_.seed + crashes_++) % 4);
      op.fail_after = rng_.Bernoulli(0.5) ? -1 : rng_.UniformInt(0, 2);
      op.noise = rng_.engine()();
      return op;
    }
    if (p_.checkpoint_every > 0 && step_ % p_.checkpoint_every == 0) {
      op.kind = Op::kCheckpoint;
      return op;
    }
    if (p_.fill_slots && ref.HasDispatchableWork()) return op;
    if (p_.fill_slots && outstanding_.empty()) return std::nullopt;
    return Draw();
  }

  /// Books an op the reference accepted.
  void Accepted(const Op& op) {
    if (op.kind == Op::kNext) outstanding_.push_back(op.ticket);
    if (op.kind == Op::kAddTenant) ++tenants_;
    if (op.kind == Op::kRemoveTenant) removed_.push_back(op.tenant);
    if (op.kind == Op::kReport || op.kind == Op::kCancel) {
      const auto closed = [&](const Assignment& a) {
        return a.id == op.ticket.id;
      };
      outstanding_.erase(
          std::remove_if(outstanding_.begin(), outstanding_.end(), closed),
          outstanding_.end());
      closed_.push_back(op.ticket);
    }
  }

  /// Rebooks after a crash: what recovery left in flight is outstanding;
  /// every ticket booked before stays in play as a stale or lost one.
  void Resync(const MultiTenantSelector& ref) {
    closed_.insert(closed_.end(), outstanding_.begin(), outstanding_.end());
    outstanding_.clear();
    const Result<core::DurableSelectorState> state = ref.CaptureDurableState();
    for (const auto& t : state->in_flight) {
      outstanding_.push_back({t.tenant, t.model, t.id});
    }
    tenants_ = ref.num_tenants();
  }

 private:
  Op Draw() {
    const Mix& m = p_.mix;
    const int weights[] = {m.next, m.report,     m.cancel, m.bad_ticket,
                           m.add,  m.add_shared, m.remove};
    int roll = rng_.UniformInt(
        0, std::accumulate(std::begin(weights), std::end(weights), 0) - 1);
    int which = 0;
    while (roll >= weights[which]) roll -= weights[which++];
    const bool live = !outstanding_.empty();
    if (which == 1 && live) return Complete(Op::kReport);
    if (which == 2 && live) return Complete(Op::kCancel);
    if (which == 3 && (live || !closed_.empty())) return BadTicket();
    if ((which == 4 || which == 5) && adds_ < p_.max_adds) {
      ++adds_;
      return Add(which == 4 ? -1 : rng_.UniformInt(0, 1));
    }
    if (which == 6) return Remove();
    return Op{};  // Next, also what a draw with nothing to act on becomes
  }

  Op Add(int shape) {
    Op op;
    op.kind = Op::kAddTenant;
    op.tenant = tenants_;
    op.shape = shape;
    return op;
  }

  /// Hands back an outstanding ticket, in any order.
  Op Complete(Op::Kind kind) {
    size_t pick = 0;
    if (p_.choice_bits < 0) {
      pick = Index(outstanding_);
    } else if (outstanding_.size() > 1) {
      pick = (p_.choice_bits >> choice_++) & 1;
    }
    Op op;
    op.kind = kind;
    op.ticket = outstanding_[pick];
    op.accuracy = Accuracy(op.ticket.tenant, op.ticket.model);
    return op;
  }

  /// A ticket every engine must refuse, each way the taxonomy names.
  Op BadTicket() {
    int variant = rng_.UniformInt(0, 4);
    if (outstanding_.empty() && variant >= 3) variant = 0;
    if (closed_.empty() && variant <= 1) variant = 3;
    Op op;
    op.kind = rng_.Bernoulli(0.5) ? Op::kReport : Op::kCancel;
    op.accuracy = 0.5;
    if (variant == 0) {  // stale
      op.ticket = closed_[Index(closed_)];
    } else if (variant == 1) {  // duplicate of the latest completion
      op.ticket = closed_.back();
    } else if (variant == 2) {  // never issued
      const auto& from = outstanding_.empty() ? closed_ : outstanding_;
      op.ticket = from[Index(from)];
      op.ticket.id = rng_.Bernoulli(0.5) ? op.ticket.id + 1000000 : -1;
    } else {  // forged tenant or model, or a non-finite accuracy
      op.ticket = outstanding_[Index(outstanding_)];
      if (variant == 4) {
        op.kind = Op::kReport;
        op.accuracy = std::numeric_limits<double>::quiet_NaN();
      } else if (rng_.Bernoulli(0.5)) {
        op.ticket.model = (op.ticket.model + 1) % p_.models;
      } else {
        ++op.ticket.tenant;
      }
    }
    return op;
  }

  /// Half the draws pick any id (live, or out of range), the rest one in
  /// flight or one already removed.
  Op Remove() {
    Op op;
    op.kind = Op::kRemoveTenant;
    const int variant = rng_.UniformInt(0, 3);
    if (variant == 1 && !outstanding_.empty()) {
      op.tenant = outstanding_[Index(outstanding_)].tenant;
    } else if (variant == 2 && !removed_.empty()) {
      op.tenant = removed_[Index(removed_)];
    } else {
      op.tenant = rng_.UniformInt(-1, tenants_ + 1);
    }
    return op;
  }

  template <typename T>
  size_t Index(const std::vector<T>& v) {
    return static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int>(v.size()) - 1));
  }

  const Profile& p_;
  Rng rng_;
  int setup_ = 0;
  int step_ = 0;
  int adds_ = 0;
  int crashes_ = 0;
  int choice_ = 0;
  int tenants_ = 0;
  std::vector<Assignment> outstanding_;  // issue order
  std::vector<Assignment> closed_;
  std::vector<int> removed_;
};

// --- The runner ------------------------------------------------------------

/// The one form every comparison uses: the full Status text, or the full
/// assignment triple / tenant id of an accepted op.
std::string Show(const Op& op, const Result<Assignment>& answer) {
  if (!answer.ok()) return answer.status().ToString();
  if (op.kind == Op::kNext) return "assigned " + Ticket(*answer);
  if (op.kind == Op::kAddTenant) return "id " + std::to_string(answer->tenant);
  return "OK";
}

/// Bit-exact engine state; the WAL position is zeroed because where a log
/// stands is not engine state (the reference has none).
std::string StateBytes(const MultiTenantSelector& engine) {
  Result<core::DurableSelectorState> state = engine.CaptureDurableState();
  if (!state.ok()) return "capture failed: " + state.status().ToString();
  state->wal_epoch = 0;
  state->wal_offset = 0;
  std::string bytes;
  wal::EncodeDurableSelectorState(&bytes, *state);
  return bytes;
}

Status ApplyCrash(wal::FaultInjectingFileSystem& fs, const Op& crash) {
  const std::string log = wal::LogPath(kDir);
  if (crash.scenario == Scenario::kKill) return Status::OK();
  if (crash.scenario == Scenario::kTornTail) {
    EASEML_ASSIGN_OR_RETURN(const uint64_t pending, fs.PendingBytes(log));
    if (pending > 0) {
      fs.CrashKeepPendingPrefix(log, crash.noise % pending);
      return Status::OK();
    }
  }
  fs.CrashDropPending();
  if (crash.scenario != Scenario::kBitFlip) return Status::OK();
  EASEML_ASSIGN_OR_RETURN(const std::string bytes, fs.ReadFile(log));
  if (bytes.empty()) return Status::OK();
  const uint64_t span = std::min<uint64_t>(64, bytes.size());
  return fs.FlipDurableBit(log, bytes.size() - 1 - (crash.noise >> 8) % span,
                           static_cast<int>(crash.noise & 7));
}

/// Test-only seams the mutation check plants defects through.
struct Mutation {
  /// Builds every subject engine instead of the real factory.
  std::function<Result<std::unique_ptr<MultiTenantSelector>>(
      const core::SelectorOptions&)>
      make_engine;
  /// Wraps every subject's WAL before its engine sees it.
  std::function<std::unique_ptr<core::DurabilityLog>(core::DurabilityLog*)>
      wrap_wal;
};

struct Outcome {
  int ops = 0;             // ops applied, the diverging one included
  std::string divergence;  // empty when every subject matched throughout
  /// Every op the reference accepted that no crash rolled back, in order.
  std::vector<Op> accepted;
  std::unique_ptr<MultiTenantSelector> reference;  // as the run left it
};

struct Subject {
  Config config;
  std::unique_ptr<wal::FaultInjectingFileSystem> fs;  // WAL rows only
  std::unique_ptr<wal::SelectorWal> wal;
  std::unique_ptr<core::DurabilityLog> log;  // Mutation::wrap_wal's wrapper
  std::unique_ptr<obs::FleetObserver> observer;
  std::unique_ptr<MultiTenantSelector> engine;  // last: destroyed first
};

/// An op the reference accepted, with the WAL epoch after it: recovery to
/// epoch E kept exactly the entries with epoch <= E.
struct Entry {
  Op op;
  int64_t epoch = 0;
  bool acked = false;  // a synced mutation the subjects acknowledged
};

class Runner {
 public:
  Runner(const Profile& profile, SchedulerKind kind, const Mutation& mutation)
      : p_(profile),
        kind_(kind),
        mutation_(mutation),
        gen_(profile, kind),
        priors_{wal::MakeTestPrior(profile.models, 0.5),
                wal::MakeTestPrior(profile.models, 0.2)} {}

  Outcome Run(const std::vector<Config>& configs) {
    Status status = ResetReference();
    for (const Config& c : configs) {
      if (!status.ok()) break;
      subjects_.emplace_back();
      subjects_.back().config = c;
      status = Build(subjects_.back());
    }
    std::optional<Op> op;
    while (status.ok() && (op = gen_.Next(*ref_)).has_value()) {
      ++ops_;
      status = Step(*op);
    }
    if (status.ok() && dying_.has_value()) status = CrashAndRecover(*dying_);
    if (status.ok()) status = CompareStates("at the end");
    // A clean restart of every WAL row must land on the state it left.
    for (Subject& s : subjects_) {
      if (status.ok() && s.wal != nullptr) status = s.wal->SyncHard();
    }
    Op restart;
    restart.kind = Op::kCrash;
    if (status.ok()) status = CrashAndRecover(restart);

    Outcome out;
    out.ops = ops_;
    if (!status.ok()) {
      out.divergence = p_.name + "/" + core::SchedulerKindName(kind_) +
                       ", op " + std::to_string(ops_) + ": " +
                       status.ToString();
    }
    for (const Entry& e : journal_) out.accepted.push_back(e.op);
    out.reference = std::move(ref_);
    return out;
  }

 private:
  core::SelectorOptions Options(const Config& c) const {
    core::SelectorOptions options;
    options.scheduler = kind_;
    options.hybrid_patience = 3;  // small enough to exercise the freeze
    options.seed = p_.seed;
    options.num_devices = p_.devices;
    options.cost_aware = p_.cost_aware;
    options.num_shards = c.shards;
    options.use_candidate_index = c.index;
    return options;
  }

  static wal::SelectorWalOptions WalOptions(const Config& c) {
    wal::SelectorWalOptions options;
    if (c.wal == WalMode::kDeferred) {
      options.durability = wal::SelectorWalOptions::Durability::kDeferred;
    }
    return options;
  }

  Status ResetReference() {
    EASEML_ASSIGN_OR_RETURN(MultiTenantSelector ref,
                            MultiTenantSelector::Create(Options(Config{})));
    ref_ = std::make_unique<MultiTenantSelector>(std::move(ref));
    return Status::OK();
  }

  Status Build(Subject& s) {
    core::SelectorOptions options = Options(s.config);
    if (s.config.wal != WalMode::kNone) {
      s.fs = std::make_unique<wal::FaultInjectingFileSystem>();
      EASEML_RETURN_NOT_OK(s.fs->CreateDir(kDir));
      EASEML_ASSIGN_OR_RETURN(
          s.wal, wal::SelectorWal::Open(s.fs.get(), wal::LogPath(kDir),
                                        WalOptions(s.config)));
      if (mutation_.wrap_wal) s.log = mutation_.wrap_wal(s.wal.get());
      options.wal = s.log != nullptr ? s.log.get() : s.wal.get();
    }
    if (mutation_.make_engine) {
      EASEML_ASSIGN_OR_RETURN(s.engine, mutation_.make_engine(options));
    } else if (s.config.observer) {
      EASEML_ASSIGN_OR_RETURN(obs::ObservedSelector observed,
                              obs::MakeObservedSelector(options, {}));
      s.observer = std::move(observed.observer);
      s.engine = std::move(observed.selector);
    } else {
      EASEML_ASSIGN_OR_RETURN(s.engine, shard::MakeSelector(options));
    }
    return Status::OK();
  }

  /// Applies an engine op; the answer carries kNext's assignment and
  /// kAddTenant's id (as `tenant`).
  Result<Assignment> Apply(MultiTenantSelector& engine, const Op& op) const {
    Status status;
    if (op.kind == Op::kNext) return engine.Next();
    if (op.kind == Op::kReport) status = engine.Report(op.ticket, op.accuracy);
    if (op.kind == Op::kCancel) status = engine.Cancel(op.ticket);
    if (op.kind == Op::kRemoveTenant) status = engine.RemoveTenant(op.tenant);
    if (op.kind == Op::kAddTenant) {
      std::vector<double> costs = Costs(op.tenant, p_.models);
      Assignment added;
      EASEML_ASSIGN_OR_RETURN(
          added.tenant,
          op.shape < 0
              ? engine.AddTenantWithDefaultPrior(p_.models, std::move(costs))
              : engine.AddTenant(priors_[op.shape], std::move(costs)));
      return added;
    }
    if (!status.ok()) return status;
    return Assignment{};
  }

  Status Step(Op& op) {
    if (op.kind == Op::kCrash && op.fail_after >= 0) {
      for (Subject& s : subjects_) {
        if (s.fs != nullptr) s.fs->ArmFailAfterOps(op.fail_after);
      }
      dying_ = op;
      return Status::OK();
    }
    if (op.kind == Op::kCrash) return CrashAndRecover(op);
    EASEML_RETURN_NOT_OK(op.kind == Op::kCheckpoint ? Checkpoint()
                                                    : Lockstep(op));
    return dying_.has_value() ? CrashAndRecover(*dying_) : Status::OK();
  }

  /// One engine op on the reference and every subject. The op a crash
  /// point is armed for is not compared: the subjects die during it.
  Status Lockstep(Op& op) {
    const Result<Assignment> want = Apply(*ref_, op);
    for (Subject& s : subjects_) {
      const Result<Assignment> got = Apply(*s.engine, op);
      if (!dying_.has_value() && Show(op, got) != Show(op, want)) {
        return Status::Internal(Describe(op) + " on " + Label(s.config) +
                                ": the reference answered '" + Show(op, want) +
                                "', the subject '" + Show(op, got) + "'");
      }
    }
    if (!want.ok()) return Status::OK();
    if (op.kind == Op::kNext || op.kind == Op::kAddTenant) op.ticket = *want;
    int64_t epoch = 0;
    for (const Subject& s : subjects_) {
      if (s.wal != nullptr) epoch = s.wal->position().epoch;
    }
    journal_.push_back({op, epoch, op.kind != Op::kNext && !dying_});
    gen_.Accepted(op);
    return Status::OK();
  }

  /// Cuts a real checkpoint on every WAL subject, then compares states.
  Status Checkpoint() {
    for (Subject& s : subjects_) {
      if (s.wal == nullptr) continue;
      const Status cut = wal::CutCheckpoint(
          s.fs.get(), kDir, s.wal.get(), *s.engine,
          s.observer != nullptr ? &s.observer->plane() : nullptr);
      if (!dying_.has_value() && !cut.ok()) {
        return Status::Internal(Label(s.config) + ": checkpoint failed: " +
                                cut.ToString());
      }
    }
    return dying_.has_value() ? Status::OK() : CompareStates("at a checkpoint");
  }

  /// Kills every WAL subject, damages its files per the scenario, recovers
  /// it through wal::OpenOrRecover, checks that acknowledged mutations
  /// survived, and rebuilds the never-crashed reference from the journal
  /// prefix recovery kept. Subjects without a WAL run on, so a crash that
  /// loses ops needs every subject to log (the crash profile's rows).
  Status CrashAndRecover(const Op& crash) {
    dying_.reset();
    int64_t last_epoch = -1;
    for (Subject& s : subjects_) {
      if (s.fs == nullptr) continue;
      s.engine.reset();  // the process dies, with its WAL buffer
      s.observer.reset();
      s.log.reset();
      s.wal.reset();
      s.fs->ClearFaults();
      EASEML_RETURN_NOT_OK(ApplyCrash(*s.fs, crash));
      core::SelectorOptions options = Options(s.config);
      if (s.config.observer) {
        obs::FleetObserverOptions obs_options;
        obs_options.num_shards = s.config.shards;
        s.observer = std::make_unique<obs::FleetObserver>(obs_options);
        options.observer = s.observer.get();
      }
      Result<wal::RecoveredSelector> recovered = wal::OpenOrRecover(
          s.fs.get(), kDir, options, WalOptions(s.config));
      if (!recovered.ok()) {
        return Status::Internal(Label(s.config) + ": recovery after " +
                                Describe(crash) + " failed: " +
                                recovered.status().ToString());
      }
      s.wal = std::move(recovered->wal);
      s.engine = std::move(recovered->selector);
      // Every row logs the same records; one that recovers to another
      // epoch than the first fails the state comparison below.
      const int64_t epoch = recovered->stats.last_epoch;
      if (last_epoch < 0) last_epoch = epoch;
      // A bit flip is a disk that lies, outside the ack guarantee.
      for (const Entry& e : journal_) {
        if (e.acked && e.epoch > epoch && s.config.wal == WalMode::kFsync &&
            crash.scenario != Scenario::kBitFlip) {
          return Status::Internal(Label(s.config) + ": acknowledged " +
                                  Describe(e.op) + " lost by " +
                                  Describe(crash));
        }
      }
    }
    if (last_epoch < 0) return Status::OK();  // no subject logs
    journal_.erase(std::remove_if(journal_.begin(), journal_.end(),
                                  [&](const Entry& e) {
                                    return e.epoch > last_epoch;
                                  }),
                   journal_.end());
    EASEML_RETURN_NOT_OK(ResetReference());
    for (const Entry& e : journal_) {
      const std::string got = Show(e.op, Apply(*ref_, e.op));
      if (got != Show(e.op, e.op.ticket)) {
        return Status::Internal("reference replay of " + Describe(e.op) +
                                " answered '" + got + "'");
      }
    }
    gen_.Resync(*ref_);
    return CompareStates("after " + Describe(crash));
  }

  Status CompareStates(const std::string& when) const {
    const std::string want = StateBytes(*ref_);
    for (const Subject& s : subjects_) {
      const std::string got = StateBytes(*s.engine);
      if (got != want) {
        const auto at = std::mismatch(want.begin(), want.end(), got.begin(),
                                      got.end()).first - want.begin();
        return Status::Internal(Label(s.config) + ": durable state " + when +
                                " differs from the reference's at byte " +
                                std::to_string(at) + " of " +
                                std::to_string(want.size()));
      }
      const Status valid = s.engine->ValidateIndex();
      if (!valid.ok()) {
        return Status::Internal(Label(s.config) + ": ValidateIndex " + when +
                                ": " + valid.ToString());
      }
    }
    return Status::OK();
  }

  const Profile& p_;
  const SchedulerKind kind_;
  const Mutation& mutation_;
  Generator gen_;
  const std::array<std::shared_ptr<const gp::SharedGpPrior>, 2> priors_;
  std::unique_ptr<MultiTenantSelector> ref_;
  std::vector<Subject> subjects_;
  std::vector<Entry> journal_;
  int ops_ = 0;
  /// A crash whose crash point is armed: the next op runs into it, and the
  /// crash completes right after.
  std::optional<Op> dying_;
};

Outcome RunProfile(const Profile& profile, SchedulerKind kind,
                   const std::vector<Config>& subjects,
                   const Mutation& mutation = {}) {
  return Runner(profile, kind, mutation).Run(subjects);
}

void ExpectNoDivergence(const Profile& profile, SchedulerKind kind,
                        const std::vector<Config>& rows) {
  ASSERT_FALSE(rows.empty());
  const Outcome outcome = RunProfile(profile, kind, rows);
  EXPECT_TRUE(outcome.divergence.empty()) << outcome.divergence;
}

// --- The profiles, run ----------------------------------------------------

std::string KindName(SchedulerKind kind) {
  std::string name = core::SchedulerKindName(kind);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

// campaign: N in {1,2,4,7} x scan/index, D in {1,3}, with and without
// tenant churn.
class ShardedConformanceTest
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, int>> {};

bool CampaignRow(const Config& c) { return Plain(c) && c.shards != 3; }

TEST_P(ShardedConformanceTest, ReplaysUnshardedBitIdentically) {
  const auto [kind, devices] = GetParam();
  ExpectNoDivergence(Campaign(devices, false), kind, Rows(CampaignRow));
}

TEST_P(ShardedConformanceTest, ReplaysUnshardedUnderTenantChurn) {
  const auto [kind, devices] = GetParam();
  ExpectNoDivergence(Campaign(devices, true), kind, Rows(CampaignRow));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, ShardedConformanceTest,
    ::testing::Combine(::testing::ValuesIn(kAllKinds), ::testing::Values(1, 3)),
    [](const auto& info) {
      return KindName(std::get<0>(info.param)) + "_D" +
             std::to_string(std::get<1>(info.param));
    });

class PerPolicyTest : public ::testing::TestWithParam<SchedulerKind> {};

// fuzz: the index at N=1 and N=3.
using IndexFuzzConformanceTest = PerPolicyTest;

TEST_P(IndexFuzzConformanceTest, IndexedPicksEqualScanPicksEventForEvent) {
  ExpectNoDivergence(Fuzz(), GetParam(), Rows([](const Config& c) {
                       return Plain(c) && c.index &&
                              (c.shards == 1 || c.shards == 3);
                     }));
}

// orderings: all 2^6 choice vectors of the T=2, K=3, D=2 campaign (six
// completions, at most a binary choice each), each checked for legality.
using AsyncOrderingTest = PerPolicyTest;

TEST_P(AsyncOrderingTest, EveryReportOrderingIsLegal) {
  constexpr int kTenants = 2;
  constexpr int kModels = 3;
  const std::vector<Config> rows = Rows(
      [](const Config& c) { return Plain(c) && c.index && c.shards <= 2; });
  std::set<std::vector<int64_t>> distinct_orderings;
  for (uint32_t bits = 0; bits < (1u << (kTenants * kModels)); ++bits) {
    const Outcome outcome = RunProfile(Orderings(bits), GetParam(), rows);
    ASSERT_TRUE(outcome.divergence.empty()) << outcome.divergence;
    // No (tenant, model) handed out twice, never more than D in flight.
    std::set<std::pair<int, int>> handed_out;
    std::vector<int64_t> completions;
    int in_flight = 0;
    for (const Op& op : outcome.accepted) {
      if (op.kind == Op::kNext) {
        const auto arm = std::make_pair(op.ticket.tenant, op.ticket.model);
        EXPECT_TRUE(handed_out.insert(arm).second) << "bits " << bits;
        EXPECT_LE(++in_flight, 2) << "bits " << bits;
      } else if (op.kind == Op::kReport) {
        --in_flight;
        completions.push_back(op.ticket.id);
      }
    }
    // One exhaustion point and a legal final belief state for every
    // ordering: each model served once, the true argmax found.
    EXPECT_EQ(completions.size(), static_cast<size_t>(kTenants * kModels));
    EXPECT_EQ(handed_out.size(), completions.size());
    MultiTenantSelector& ref = *outcome.reference;
    EXPECT_TRUE(ref.Exhausted());
    EXPECT_EQ(ref.num_in_flight(), 0);
    EXPECT_FALSE(ref.Next().ok());
    for (int t = 0; t < kTenants; ++t) {
      int best = 0;
      for (int m = 1; m < kModels; ++m) {
        if (Accuracy(t, m) > Accuracy(t, best)) best = m;
      }
      EXPECT_EQ(ref.RoundsServed(t).value(), kModels);
      EXPECT_EQ(ref.BestModel(t).value(), best);
      EXPECT_EQ(ref.BestAccuracy(t).value(), Accuracy(t, best));
    }
    distinct_orderings.insert(completions);
  }
  // Two device slots give a genuine choice at most steps.
  EXPECT_GT(distinct_orderings.size(), 8u);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, IndexFuzzConformanceTest,
                         ::testing::ValuesIn(kAllKinds),
                         [](const auto& info) { return KindName(info.param); });
INSTANTIATE_TEST_SUITE_P(AllSchedulers, AsyncOrderingTest,
                         ::testing::ValuesIn(kAllKinds),
                         [](const auto& info) { return KindName(info.param); });

// out_of_order: the queued report pipeline folds in the reference's order
// at every shard count.
std::vector<Config> OutOfOrderRows(bool index, std::set<int> shards) {
  return Rows([&](const Config& c) {
    return Plain(c) && c.index == index && shards.count(c.shards) > 0;
  });
}

TEST(ReportPipelineStressTest, OutOfOrderLockstepParityGreedyIndexed) {
  ExpectNoDivergence(OutOfOrder(), SchedulerKind::kGreedy,
                     OutOfOrderRows(true, {1, 2, 4, 7}));
}

TEST(ReportPipelineStressTest, OutOfOrderLockstepParityHybridIndexed) {
  ExpectNoDivergence(OutOfOrder(), SchedulerKind::kHybrid,
                     OutOfOrderRows(true, {1, 2, 4, 7}));
}

TEST(ReportPipelineStressTest, OutOfOrderLockstepParityGreedyScan) {
  ExpectNoDivergence(OutOfOrder(), SchedulerKind::kGreedy,
                     OutOfOrderRows(false, {2, 7}));
}

// Traces stay bit-identical with a WAL (every tier) or an observer on:
// out_of_order over every row that logs or observes, for every policy.
TEST(OpenOrRecover, WalOnOffTracesAreBitIdentical) {
  for (const SchedulerKind kind : kAllKinds) {
    ExpectNoDivergence(OutOfOrder(), kind,
                       Rows([](const Config& c) { return !Plain(c); }));
  }
}

// crash: synced-WAL engines at N in {1,4} x scan/index, killed under every
// scenario, with and without a mid-operation crash point.
TEST(KillRecoverBattery, RecoveredStateIsBitIdenticalAcrossTheMatrix) {
  const std::vector<Config> rows = Rows(
      [](const Config& c) { return c.wal == WalMode::kFsync && !c.observer; });
  for (const SchedulerKind kind : kAllKinds) {
    for (uint64_t seed = 1000; seed < 1002; ++seed) {
      ExpectNoDivergence(Crash(seed), kind, rows);
    }
  }
}

// --- Mutation check: a planted defect shows up as a divergence within a
// bounded op count; the clean engine on the same seed shows none.

constexpr int kMutationOpBound = 500;

/// The real policy, except that its n-th pick goes to a different
/// schedulable tenant.
class FlipNthPick final : public scheduler::SchedulerPolicy {
 public:
  using Users = std::vector<scheduler::UserState>;

  FlipNthPick(std::unique_ptr<scheduler::SchedulerPolicy> real, int n)
      : real_(std::move(real)), n_(n) {}

  Result<int> PickUser(const Users& users, int round) override {
    return Flip(users, real_->PickUser(users, round));
  }
  Result<int> PickUserIndexed(const Users& users, int round,
                              const scheduler::CandidateIndex& index) override {
    return Flip(users, real_->PickUserIndexed(users, round, index));
  }
  void OnOutcome(const Users& users, int served) override {
    real_->OnOutcome(users, served);
  }
  bool ObservesOutcomes() const override { return real_->ObservesOutcomes(); }
  bool RequiresInitialSweep() const override {
    return real_->RequiresInitialSweep();
  }
  std::string name() const override { return real_->name(); }
  void SaveDurable(std::string* out) const override { real_->SaveDurable(out); }
  Status LoadDurable(std::string_view* in) override {
    return real_->LoadDurable(in);
  }

 private:
  Result<int> Flip(const Users& users, Result<int> pick) {
    if (!pick.ok() || ++picks_ != n_) return pick;
    for (const scheduler::UserState& u : users) {
      if (u.Schedulable() && u.user_id() != *pick) return u.user_id();
    }
    return pick;
  }

  std::unique_ptr<scheduler::SchedulerPolicy> real_;
  const int n_;
  int picks_ = 0;
};

/// The engine around FlipNthPick, built through the protected
/// (options, policy) constructor.
class FlippedPickSelector final : public MultiTenantSelector {
 public:
  static Result<std::unique_ptr<MultiTenantSelector>> Create(
      const core::SelectorOptions& options, int n) {
    std::unique_ptr<FlippedPickSelector> selector(new FlippedPickSelector(
        options,
        std::make_unique<FlipNthPick>(core::MakeSchedulerPolicy(options), n)));
    if (options.use_candidate_index) selector->ResetIndex(1);
    return std::unique_ptr<MultiTenantSelector>(std::move(selector));
  }

 private:
  using MultiTenantSelector::MultiTenantSelector;
};

/// The real WAL, except that the n-th Report record is silently dropped.
class DropNthReport final : public core::DurabilityLog {
 public:
  DropNthReport(core::DurabilityLog* real, int n) : real_(real), n_(n) {}

  Status LogAddTenant(int tenant,
                      const std::shared_ptr<const gp::SharedGpPrior>& prior,
                      const std::vector<double>& costs) override {
    return real_->LogAddTenant(tenant, prior, costs);
  }
  Status LogRemoveTenant(int tenant) override {
    return real_->LogRemoveTenant(tenant);
  }
  Status LogNext(int tenant, int model, int64_t ticket) override {
    return real_->LogNext(tenant, model, ticket);
  }
  Status LogReport(int64_t ticket, int tenant, int model,
                   double accuracy) override {
    if (++reports_ == n_) return Status::OK();
    return real_->LogReport(ticket, tenant, model, accuracy);
  }
  Status LogCancel(int64_t ticket, int tenant, int model) override {
    return real_->LogCancel(ticket, tenant, model);
  }
  Status Sync() override { return real_->Sync(); }
  bool SyncIsDeferred() const override { return real_->SyncIsDeferred(); }
  Position position() const override { return real_->position(); }

 private:
  core::DurabilityLog* const real_;
  const int n_;
  int reports_ = 0;
};

void ExpectCaught(const Profile& profile, const Config& row,
                  const Mutation& mutation) {
  const Outcome mutated =
      RunProfile(profile, SchedulerKind::kGreedy, {row}, mutation);
  EXPECT_FALSE(mutated.divergence.empty()) << Label(row);
  EXPECT_LE(mutated.ops, kMutationOpBound) << mutated.divergence;
  const Outcome clean = RunProfile(profile, SchedulerKind::kGreedy, {row});
  EXPECT_TRUE(clean.divergence.empty()) << clean.divergence;
}

TEST(MutationCheck, FlippedPickIsCaught) {
  Profile profile = Fuzz();
  profile.max_ops = kMutationOpBound - profile.tenants;
  Mutation mutation;
  mutation.make_engine = [](const core::SelectorOptions& options) {
    return FlippedPickSelector::Create(options, /*n=*/5);
  };
  for (const bool index : {false, true}) {
    Config row;
    row.index = index;
    ExpectCaught(profile, row, mutation);
  }
}

TEST(MutationCheck, DroppedWalReportIsCaught) {
  // A checkpoint between the drop and the next crash would legitimately
  // absorb the lost record: recovery starts from the captured state.
  Profile profile = Crash(1000);
  profile.checkpoint_every = 0;
  Config row;
  row.wal = WalMode::kFsync;
  Mutation mutation;
  mutation.wrap_wal = [](core::DurabilityLog* real) {
    return std::make_unique<DropNthReport>(real, /*n=*/1);
  };
  ExpectCaught(profile, row, mutation);
}

}  // namespace
}  // namespace easeml::differential
