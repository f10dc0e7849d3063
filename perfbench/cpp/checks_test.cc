// Negative tests of the benchmark's output checks: each check passes on a
// real result computed through the library, then fails on the same result
// with one value corrupted.
//
//   ./perfbench_checks_test      (exit 0 when every case behaves)
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"

namespace perfbench {
namespace {

using namespace pscrub;

int g_failures = 0;

void expect(bool pass_wanted, const std::string& error, const char* what) {
  const bool passed = error.empty();
  if (passed != pass_wanted) {
    ++g_failures;
    std::printf("FAIL %s: wanted %s, got %s\n", what,
                pass_wanted ? "pass" : "failure",
                passed ? "pass" : error.c_str());
  } else {
    std::printf("ok   %s%s%s\n", what, passed ? "" : " -> ",
                error.c_str());
  }
}
void expect_pass(const std::string& e, const char* what) {
  expect(true, e, what);
}
void expect_fail(const std::string& e, const char* what) {
  expect(false, e, what);
}

trace::Trace small_trace(const char* name) {
  trace::TraceSpec spec = *trace::spec_by_name(name);
  spec.target_requests = 4'000;
  trace::SyntheticGenerator gen(spec);
  return gen.generate_trace(1.0);
}

IdleJobResult idle_result(const trace::Trace& t) {
  IdleJobResult r;
  r.records = static_cast<std::int64_t>(t.size());
  r.idle_seconds = trace::extract_idle_intervals(
                       t, core::make_foreground_service(
                              disk::hitachi_ultrastar_15k450()))
                       .idle_seconds;
  r.hourly = t.hourly_counts();
  r.summary = stats::summarize(r.idle_seconds);
  const stats::ResidualLife life(r.idle_seconds);
  r.tail_weight = life.tail_weight(0.15);
  for (double x : kResidualPoints) {
    r.mean_residual.push_back(life.mean_residual(x));
    r.residual_p01.push_back(life.residual_quantile(x, 0.01));
    r.usable.push_back(life.usable_fraction(x));
  }
  r.period = stats::detect_period(r.hourly);
  return r;
}

void idle_checks() {
  const IdleJobResult good = idle_result(small_trace("MSRusr2"));
  expect_pass(check_idle_job(good), "idle job");

  IdleJobResult bad = good;
  bad.hourly[3] += 1.0;
  expect_fail(check_idle_job(bad), "idle: one hourly count changed");

  bad = good;
  for (double& s : bad.idle_seconds) s = 1.0;
  bad.summary = stats::summarize(bad.idle_seconds);
  expect_fail(check_idle_job(bad), "idle: CoV not above 1");

  bad = good;
  bad.usable[2] = bad.usable[1] + 0.01;
  expect_fail(check_idle_job(bad), "idle: usable share rising");

  std::vector<double> other = good.idle_seconds;
  expect_pass(check_idle_stream_matches(good.idle_seconds, other),
              "idle streamed == materialised");
  other[other.size() / 2] = std::nextafter(other[other.size() / 2], 1e9);
  expect_fail(check_idle_stream_matches(good.idle_seconds, other),
              "idle: one interval off by one ulp");
}

void tune_checks() {
  const trace::Trace t = small_trace("HPc6t8d0");
  std::ostringstream os;
  trace::write_csv(t, os);
  std::istringstream is(os.str());
  trace::Trace read = trace::read_csv(is, t.name);
  expect_pass(check_trace_roundtrip(t, read), "CSV round trip");
  read.records[7].lbn += 1;
  expect_fail(check_trace_roundtrip(t, read), "CSV: one LBN changed");

  const disk::DiskProfile p = disk::hitachi_ultrastar_15k450();
  const std::vector<SimTime> services =
      core::precompute_services(t, core::make_foreground_service(p));
  core::OptimizerConfig oc;
  oc.scrub_service = core::make_scrub_service(p);
  oc.services = &services;
  oc.workers = 1;
  core::SlowdownGoal goal;
  goal.mean = 2 * kMillisecond;
  const core::SizeThresholdChoice best = core::optimize(t, oc, goal);
  const auto replay = [&](SimTime threshold) {
    core::WaitingPolicy policy(threshold);
    core::PolicySimConfig sim;
    sim.services = &services;
    sim.scrub_service = oc.scrub_service;
    sim.sizer = core::ScrubSizer::fixed(best.request_bytes);
    return core::run_policy_sim_reference(t, policy, sim);
  };
  const core::PolicySimResult replayed = replay(best.threshold);
  expect_pass(check_tune_choice(best, oc, goal, replayed), "tune choice");

  core::SizeThresholdChoice bad = best;
  bad.threshold += 1;
  expect_fail(check_tune_choice(bad, oc, goal, replay(bad.threshold)),
              "tune: threshold shifted by 1 ns");
  bad = best;
  bad.scrub_mb_s = std::nextafter(bad.scrub_mb_s, 1e9);
  expect_fail(check_tune_choice(bad, oc, goal, replayed),
              "tune: MB/s off by one ulp");
  core::SlowdownGoal tight = goal;
  tight.mean = from_seconds(best.achieved_mean_slowdown_ms * 0.5e-3);
  expect_fail(check_tune_choice(best, oc, tight, replayed),
              "tune: achieved slowdown above the goal");

  const auto records = static_cast<std::int64_t>(t.size());
  expect_pass(check_policy_result(replayed, records), "policy result");
  core::PolicySimResult wrong = replayed;
  wrong.foreground_requests -= 1;
  expect_fail(check_policy_result(wrong, records),
              "policy: one record missing");
  wrong = replayed;
  wrong.collision_rate = 1.5;
  expect_fail(check_policy_result(wrong, records),
              "policy: collision rate above 1");
}

void replay_checks() {
  ReplayJobResult good;
  good.scrubber = false;
  good.window_records = 500;
  good.events = 2'000;
  good.workload_requests = 500;
  good.responses = 500;
  good.quantiles = {0.004, 0.009, 0.02};
  expect_pass(check_replay_job(good), "replay no-scrubber job");

  ReplayJobResult bad = good;
  bad.responses = 499;
  expect_fail(check_replay_job(bad), "replay: one record not completed");
  bad = good;
  bad.collisions = 1;
  expect_fail(check_replay_job(bad), "replay: no-scrubber collision");
  bad = good;
  bad.scrubber = true;
  expect_fail(check_replay_job(bad), "replay: scrubber issued nothing");
  bad = good;
  bad.quantiles[2] = 0.001;
  expect_fail(check_replay_job(bad), "replay: quantiles not rising");
}

void fleet_checks() {
  exp::ScenarioConfig c;
  c.disk.capacity_bytes = 4LL << 30;
  c.scrubber.kind = exp::ScrubberKind::kWaiting;
  c.run_for = 30 * kDay;
  c.fleet.disks = 64;
  c.fleet.util_min = 0.2;
  c.fleet.util_max = 0.6;
  c.fleet.pacing.request_service = 10 * kMillisecond;
  c.fault.enabled = true;
  c.fault.lse.burst_interarrival_mean = 2 * kDay;
  exp::SweepOptions options;
  options.workers = 1;
  obs::Timeline off;
  options.timeline_into = &off;
  const fleet::FleetResult good = fleet::run_fleet(c, options);
  expect_pass(check_fleet_totals(good), "fleet totals");
  std::int64_t with_errors = 0;
  while (good.state.errors[static_cast<std::size_t>(with_errors)] == 0) {
    ++with_errors;
  }
  const fleet::MemberResult member = fleet::run_member(c, with_errors);
  expect_pass(check_fleet_member(good, with_errors, member), "fleet member");

  fleet::FleetResult bad = good;
  bad.state.errors[static_cast<std::size_t>(with_errors)] += 1;
  expect_fail(check_fleet_member(bad, with_errors, member),
              "fleet: one member's error count changed");
  expect_fail(check_fleet_totals(bad), "fleet: totals vs changed member");

  exp::ScenarioConfig d;
  d.label = "pscrubd";
  d.disk.capacity_bytes = 1LL << 30;
  d.scrubber.kind = exp::ScrubberKind::kWaiting;
  d.scrubber.strategy.request_bytes = 256 * 1024;
  d.run_for = 2 * kHour;
  d.daemon.devices = 4;
  d.daemon.checkpoint_interval = 10 * kMinute;
  d.daemon.client_commands = 40;
  d.daemon.client_interval = d.run_for / 40;
  d.daemon.pacing.request_service = kMillisecond;
  d.daemon.pacing.request_spacing = 3 * kMillisecond;
  const daemon::DaemonResult run = daemon::run_daemon(d, &off);
  expect_pass(check_daemon_result(run, d.daemon), "daemon result");
  daemon::DaemonResult wrong = run;
  wrong.commands_rejected += 1;
  expect_fail(check_daemon_result(wrong, d.daemon),
              "daemon: one extra rejection");
  wrong = run;
  wrong.jobs[1].extents += 1;
  expect_fail(check_daemon_result(wrong, d.daemon),
              "daemon: one device's extents changed");

  exp::ScenarioConfig crashed = d;
  crashed.daemon.crash_at = d.run_for / 2;
  const std::string whole = daemon::render_daemon_result(run);
  std::string restored =
      daemon::render_daemon_result(daemon::run_daemon(crashed, &off));
  expect_pass(check_daemon_crash_replay(whole, restored),
              "daemon crash replay");
  restored[restored.size() / 2] ^= 1;
  expect_fail(check_daemon_crash_replay(whole, restored),
              "daemon: one rendered byte changed");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::idle_checks();
  perfbench::tune_checks();
  perfbench::replay_checks();
  perfbench::fleet_checks();
  std::printf("%d failure(s)\n", perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
