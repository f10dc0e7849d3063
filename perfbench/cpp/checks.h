// Output checks of the benchmark's workloads.
//
// Pure functions over job results, so checks_test.cc can feed each one a
// corrupted result and expect it to fail. Each returns "" when the result
// passes, else a one-line description of the first failure. None gates
// realised trace volume: the generator's volume is reported, not checked.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pscrub.h"

namespace perfbench {

/// FNV-1a over the bytes of the values folded in.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v);
  void add(std::string_view s);
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b);
  std::uint64_t h_ = 14695981039346656037ULL;
};

// ---- idle: streamed trace characterisation -------------------------------

/// Idle times (seconds) at which the Figs 11-13 residual-life points are
/// read.
inline constexpr double kResidualPoints[] = {0.01, 0.1, 1.0, 10.0};

struct IdleJobResult {
  std::int64_t records = 0;
  std::vector<double> idle_seconds;
  std::vector<double> hourly;           // Fig 8/9 hourly request counts
  pscrub::stats::Summary summary;       // Table II
  double tail_weight = 0.0;             // Fig 10: share of the 15% largest
  std::vector<double> mean_residual;    // Fig 11, at kResidualPoints
  std::vector<double> residual_p01;     // Fig 12
  std::vector<double> usable;           // Fig 13
  pscrub::stats::PeriodResult period;   // Fig 9
};

/// Table II's regime (CoV > 1) and the internal consistency of the
/// Figs 9-13 outputs.
std::string check_idle_job(const IdleJobResult& r);
/// Streaming and materialising one spec give the same idle intervals, bit
/// for bit.
std::string check_idle_stream_matches(const std::vector<double>& streamed,
                                      const std::vector<double>& materialised);

// ---- tune: Table III optimizer ------------------------------------------

/// The CSV round trip returns the generated records unchanged.
std::string check_trace_roundtrip(const pscrub::trace::Trace& generated,
                                  const pscrub::trace::Trace& read_back);
/// The optimizer's choice meets the goal, lies on its own log-space
/// threshold search path, and equals `replayed` (the reference replay of
/// the chosen point) bit for bit.
std::string check_tune_choice(const pscrub::core::SizeThresholdChoice& best,
                              const pscrub::core::OptimizerConfig& config,
                              const pscrub::core::SlowdownGoal& goal,
                              const pscrub::core::PolicySimResult& replayed);
/// A comparison policy's replay covered every record with sane ratios.
std::string check_policy_result(const pscrub::core::PolicySimResult& r,
                                std::int64_t records);

// ---- replay: event-driven foreground impact -----------------------------

struct ReplayJobResult {
  bool scrubber = false;
  std::int64_t window_records = 0;
  std::int64_t events = 0;
  std::int64_t workload_requests = 0;
  std::int64_t responses = 0;
  std::int64_t scrub_requests = 0;
  std::int64_t collisions = 0;
  std::vector<double> quantiles;  // response-time ECDF p50, p90, p99
};

/// Every window record completes; the no-scrubber configuration issues no
/// scrub request and sees no collision.
std::string check_replay_job(const ReplayJobResult& r);

// ---- fleet: fleet layer and pscrubd -------------------------------------

/// Member `index` of the fleet equals its fleet::run_member reference.
std::string check_fleet_member(const pscrub::fleet::FleetResult& fleet,
                               std::int64_t index,
                               const pscrub::fleet::MemberResult& member);
/// The rollup totals equal the per-disk state summed in disk order.
std::string check_fleet_totals(const pscrub::fleet::FleetResult& fleet);
/// The daemon served its operator client and finished its accounting.
std::string check_daemon_result(const pscrub::daemon::DaemonResult& r,
                                const pscrub::exp::DaemonSpec& spec);
/// A run with an in-sim crash renders byte-identically to the
/// uninterrupted one.
std::string check_daemon_crash_replay(const std::string& uninterrupted,
                                      const std::string& crashed);

}  // namespace perfbench
