#include "checks.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <string>

namespace perfbench {

using namespace pscrub;

void Digest::byte(unsigned char b) {
  h_ ^= b;
  h_ *= 1099511628211ULL;
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
}

void Digest::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

void Digest::add(std::string_view s) {
  for (char c : s) byte(static_cast<unsigned char>(c));
  add(static_cast<std::uint64_t>(s.size()));
}

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string fmt(const char* format, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

}  // namespace

std::string check_idle_job(const IdleJobResult& r) {
  if (r.records <= 0 || r.idle_seconds.empty()) {
    return "idle: no records or no idle intervals";
  }
  if (r.summary.count != r.idle_seconds.size()) {
    return "idle: Table II summary does not cover every interval";
  }
  if (!(r.summary.cov > 1.0)) {
    return fmt("idle: idle-interval CoV %.3f is not above 1", r.summary.cov);
  }
  double hourly_total = 0.0;
  for (double c : r.hourly) hourly_total += c;
  if (hourly_total != static_cast<double>(r.records)) {
    return fmt("idle: hourly counts sum to %.0f, not %.0f records",
               hourly_total, static_cast<double>(r.records));
  }
  if (!(r.tail_weight >= 0.15 - 1e-12 && r.tail_weight <= 1.0 + 1e-12)) {
    return fmt("idle: tail weight %.6f outside [0.15, 1]", r.tail_weight);
  }
  const std::size_t points = std::size(kResidualPoints);
  if (r.mean_residual.size() != points || r.residual_p01.size() != points ||
      r.usable.size() != points) {
    return "idle: missing residual-life points";
  }
  for (std::size_t i = 0; i < points; ++i) {
    if (!std::isfinite(r.mean_residual[i]) || r.mean_residual[i] < 0.0 ||
        !std::isfinite(r.residual_p01[i]) || r.residual_p01[i] < 0.0) {
      return fmt("idle: bad residual life at x=%g s", kResidualPoints[i]);
    }
    if (!(r.usable[i] >= 0.0 && r.usable[i] <= 1.0) ||
        (i > 0 && r.usable[i] > r.usable[i - 1])) {
      return fmt("idle: usable fraction %.6f at x=%g s not a falling share",
                 r.usable[i], kResidualPoints[i]);
    }
  }
  if (r.period.period_hours < 1) return "idle: ANOVA period below 1 hour";
  return "";
}

std::string check_idle_stream_matches(const std::vector<double>& streamed,
                                      const std::vector<double>& materialised) {
  if (streamed.size() != materialised.size()) {
    return fmt("idle: streamed %.0f intervals, materialised %.0f",
               static_cast<double>(streamed.size()),
               static_cast<double>(materialised.size()));
  }
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    if (!same_bits(streamed[i], materialised[i])) {
      return fmt("idle: interval %.0f differs between streamed and "
                 "materialised extraction",
                 static_cast<double>(i));
    }
  }
  return "";
}

std::string check_trace_roundtrip(const trace::Trace& generated,
                                  const trace::Trace& read_back) {
  if (generated.records.size() != read_back.records.size()) {
    return "tune: CSV round trip changed the record count";
  }
  for (std::size_t i = 0; i < generated.records.size(); ++i) {
    const trace::TraceRecord& a = generated.records[i];
    const trace::TraceRecord& b = read_back.records[i];
    if (a.arrival != b.arrival || a.lbn != b.lbn || a.sectors != b.sectors ||
        a.is_write != b.is_write) {
      return fmt("tune: CSV round trip changed record %.0f",
                 static_cast<double>(i));
    }
  }
  return "";
}

std::string check_tune_choice(const core::SizeThresholdChoice& best,
                              const core::OptimizerConfig& config,
                              const core::SlowdownGoal& goal,
                              const core::PolicySimResult& replayed) {
  if (best.request_bytes <= 0 || !(best.scrub_mb_s > 0.0)) {
    return "tune: no feasible (size, threshold) choice";
  }
  if (!(best.achieved_mean_slowdown_ms <= to_milliseconds(goal.mean))) {
    return fmt("tune: achieved slowdown %.6f ms exceeds the %.3f ms goal",
               best.achieved_mean_slowdown_ms, to_milliseconds(goal.mean));
  }
  if (config.scrub_service(best.request_bytes) > goal.max) {
    return "tune: chosen request size exceeds the maximum slowdown";
  }
  // The threshold must be a probe of the optimizer's log-space binary
  // search. On the actual path a probe t was feasible iff t >= the chosen
  // threshold (a feasible probe below it would have replaced it), so the
  // path can be re-walked without evaluating anything.
  bool on_path = best.threshold == config.max_threshold;
  double lo = std::log(static_cast<double>(config.min_threshold));
  double hi = std::log(static_cast<double>(config.max_threshold));
  for (int i = 0; i < config.binary_search_iters && !on_path; ++i) {
    const double mid = (lo + hi) / 2.0;
    const auto t = static_cast<SimTime>(std::exp(mid));
    if (t == best.threshold) on_path = true;
    if (t >= best.threshold) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  if (!on_path) {
    return fmt("tune: threshold %.0f ns is not on the optimizer's search "
               "path",
               static_cast<double>(best.threshold));
  }
  if (!same_bits(replayed.scrub_mb_s, best.scrub_mb_s) ||
      !same_bits(replayed.mean_slowdown_ms, best.achieved_mean_slowdown_ms) ||
      !same_bits(replayed.collision_rate, best.collision_rate)) {
    return fmt("tune: reference replay gives %.17g MB/s, optimizer %.17g",
               replayed.scrub_mb_s, best.scrub_mb_s);
  }
  return "";
}

std::string check_policy_result(const core::PolicySimResult& r,
                                std::int64_t records) {
  if (r.foreground_requests != records) {
    return "tune: comparison replay skipped foreground records";
  }
  if (!(r.collision_rate >= 0.0 && r.collision_rate <= 1.0) ||
      !(r.idle_utilization >= 0.0 && r.idle_utilization <= 1.0) ||
      !(r.scrub_mb_s >= 0.0) || !std::isfinite(r.scrub_mb_s) ||
      !(r.mean_slowdown_ms >= 0.0) || !std::isfinite(r.mean_slowdown_ms)) {
    return "tune: comparison replay produced an out-of-range ratio";
  }
  return "";
}

std::string check_replay_job(const ReplayJobResult& r) {
  if (r.workload_requests != r.window_records ||
      r.responses != r.window_records) {
    return fmt("replay: %.0f of %.0f foreground records completed",
               static_cast<double>(r.responses),
               static_cast<double>(r.window_records));
  }
  if (r.events <= 0) return "replay: the simulator fired no events";
  if (!r.scrubber && (r.scrub_requests != 0 || r.collisions != 0)) {
    return "replay: the no-scrubber run recorded scrub requests or "
           "collisions";
  }
  if (r.scrubber && r.scrub_requests <= 0) {
    return "replay: the scrubber issued no request";
  }
  for (std::size_t i = 0; i < r.quantiles.size(); ++i) {
    if (!(r.quantiles[i] > 0.0) || !std::isfinite(r.quantiles[i]) ||
        (i > 0 && r.quantiles[i] < r.quantiles[i - 1])) {
      return "replay: response-time quantiles are not positive and rising";
    }
  }
  return "";
}

std::string check_fleet_member(const fleet::FleetResult& fleet,
                               std::int64_t index,
                               const fleet::MemberResult& member) {
  const auto i = static_cast<std::size_t>(index);
  const fleet::FleetState& s = fleet.state;
  if (index < 0 || index >= s.disks()) return "fleet: member out of range";
  if (!same_bits(s.utilization[i], member.utilization) ||
      s.effective_step[i] != member.effective_step ||
      !same_bits(s.slowdown[i], member.slowdown) ||
      s.errors[i] != member.mlet.errors ||
      !same_bits(s.mlet_hours[i], member.mlet.mlet_hours) ||
      !same_bits(s.worst_hours[i], member.mlet.worst_hours)) {
    return fmt("fleet: member %.0f differs from fleet::run_member",
               static_cast<double>(index));
  }
  return "";
}

std::string check_fleet_totals(const fleet::FleetResult& fleet) {
  if (fleet.state.disks() != fleet.disks) {
    return "fleet: state does not cover every member";
  }
  std::int64_t bursts = 0;
  std::int64_t errors = 0;
  for (std::int64_t i = 0; i < fleet.disks; ++i) {
    bursts += fleet.state.bursts[static_cast<std::size_t>(i)];
    errors += fleet.state.errors[static_cast<std::size_t>(i)];
  }
  if (bursts != fleet.total_bursts || errors != fleet.total_errors) {
    return "fleet: rollup totals differ from the per-disk state";
  }
  if (fleet.total_errors <= 0) return "fleet: no latent errors injected";
  return "";
}

std::string check_daemon_result(const daemon::DaemonResult& r,
                                const exp::DaemonSpec& spec) {
  if (static_cast<std::int64_t>(r.jobs.size()) != spec.devices) {
    return "daemon: result does not cover every device";
  }
  if (r.client_issued <= 0 ||
      r.commands_applied + r.commands_rejected != r.client_issued) {
    return "daemon: applied + rejected commands differ from those issued";
  }
  std::int64_t extents = 0;
  for (const daemon::DaemonResult::Job& j : r.jobs) extents += j.extents;
  if (extents != r.extents || r.extents <= 0) {
    return "daemon: extent total differs from the per-device sum";
  }
  if (spec.checkpoint_interval > 0 && r.checkpoints <= 0) {
    return "daemon: no checkpoint was taken";
  }
  return "";
}

std::string check_daemon_crash_replay(const std::string& uninterrupted,
                                      const std::string& crashed) {
  if (uninterrupted.empty() || uninterrupted != crashed) {
    return "daemon: the crash-and-restore run renders differently";
  }
  return "";
}

}  // namespace perfbench
