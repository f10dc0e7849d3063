// fleet: the fleet layer and the pscrubd control plane (`fleet_study`,
// `pscrubd_sim`).
//
// A job evaluates one fleet with fleet::run_fleet (members alternate
// sequential and staggered schedules; every input has its own fault and
// utilisation seeds), then runs daemon::run_daemon over a device
// population with an operator client and a checkpoint every minute.
// Closed-form pacing, the SoA fleet state, per-disk fault plans, the token
// bucket and the checkpoint codec run only here.
#include <algorithm>
#include <vector>

#include "checks.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace pscrub;

/// Members checked against fleet::run_member per job.
constexpr int kSampledMembers = 4;

/// Per-extent service time that paces an idle-disk pass to `pass_hours`.
SimTime paced_service(const exp::ScenarioConfig& c, double pass_hours) {
  const disk::DiskProfile p = c.disk.profile();
  const std::int64_t total =
      disk::Geometry(p.capacity_bytes, p.outer_spt, p.inner_spt, p.zones)
          .total_sectors();
  const std::int64_t request =
      disk::sectors_from_bytes(c.scrubber.strategy.request_bytes);
  const std::int64_t steps = (total + request - 1) / request;
  return from_seconds(pass_hours * 3600.0 / static_cast<double>(steps));
}

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(const Params& params, Spans& spans)
      : spans_(spans), seed_(params.seed) {
    const std::size_t count = params.tiny ? 2 : 4;
    // Inputs first, then the warm-up job's own one.
    for (std::size_t i = 0; i <= count; ++i) {
      fleets_.push_back(fleet_config(i, params.tiny ? 500 : 20'000));
      daemons_.push_back(daemon_config(i, params.tiny ? 8 : 128,
                                       params.tiny ? 50 : 500));
    }
  }

  std::size_t inputs() const override { return fleets_.size() - 1; }

  void warm_up() override { run(fleets_.size() - 1); }

  void run(std::size_t i) override {
    exp::SweepOptions options;
    options.workers = 1;
    options.timeline_into = &timeline_;
    {
      const Spans::Scope span(spans_, "fleet.run");
      fleet_ = fleet::run_fleet(fleets_[i], options);
    }
    {
      const Spans::Scope span(spans_, "daemon.run");
      daemon_ = daemon::run_daemon(daemons_[i], &timeline_);
    }
    spans_.count("fleet.disks", fleet_.disks);
    spans_.count("fleet.errors", fleet_.total_errors);
    spans_.count("daemon.extents", daemon_.extents);
    spans_.count("daemon.checkpoints", daemon_.checkpoints);
    spans_.count("daemon.rejected", daemon_.commands_rejected);
    spans_.count("daemon.client_issued", daemon_.client_issued);
  }

  JobCheck check(std::size_t i) override {
    JobCheck c;
    c.units = static_cast<double>(fleet_.disks + daemon_.jobs.size());
    c.error = check_fleet_totals(fleet_);
    for (int s = 0; s < kSampledMembers && c.error.empty(); ++s) {
      const auto member = static_cast<std::int64_t>(
          exp::task_seed(seed_ ^ 0x5eedULL, i * kSampledMembers + s) %
          static_cast<std::uint64_t>(fleet_.disks));
      c.error = check_fleet_member(fleet_, member,
                                   fleet::run_member(fleets_[i], member));
    }
    if (c.error.empty()) {
      c.error = check_daemon_result(daemon_, daemons_[i].daemon);
    }
    Digest d;
    d.add(fleet_.total_bursts);
    d.add(fleet_.total_errors);
    d.add(fleet_.fleet_mlet_hours);
    d.add(fleet_.mean_slowdown);
    d.add(daemon::render_daemon_result(daemon_));
    d.add(daemon_.status_checksum);
    c.digest = d.value();
    return c;
  }

  std::string check_run() override {
    // One daemon input per run, repeated with a crash at mid-horizon.
    exp::ScenarioConfig crashed = daemons_[0];
    crashed.daemon.crash_at = crashed.run_for / 2;
    const std::string whole =
        daemon::render_daemon_result(daemon::run_daemon(daemons_[0],
                                                        &timeline_));
    const std::string restored =
        daemon::render_daemon_result(daemon::run_daemon(crashed, &timeline_));
    return check_daemon_crash_replay(whole, restored);
  }

 private:
  exp::ScenarioConfig fleet_config(std::size_t i, std::int64_t disks) const {
    exp::ScenarioConfig c;
    c.label = "fleet";
    c.disk.capacity_bytes = 32LL << 30;
    c.scrubber.kind = exp::ScrubberKind::kWaiting;
    c.scrubber.strategy.kind = i % 2 == 0 ? exp::StrategyKind::kSequential
                                          : exp::StrategyKind::kStaggered;
    c.scrubber.strategy.request_bytes = 64 * 1024;
    c.scrubber.strategy.regions = 128;
    c.run_for = 90 * kDay;
    c.fleet.disks = disks;
    c.fleet.util_min = 0.2;
    c.fleet.util_max = 0.6;
    c.fleet.util_seed = exp::task_seed(seed_, 4 * i);
    c.fleet.pacing.request_service = paced_service(c, 24.0);
    c.fault.enabled = true;
    c.fault.seed = exp::task_seed(seed_, 4 * i + 1);
    c.fault.lse.burst_interarrival_mean = 10 * kDay;
    c.fault.lse.burst_span_bytes = 64LL << 20;
    return c;
  }

  exp::ScenarioConfig daemon_config(std::size_t i, std::int64_t devices,
                                    std::int64_t commands) const {
    exp::ScenarioConfig c;
    c.label = "pscrubd";
    c.disk.capacity_bytes = 2LL << 30;
    c.scrubber.kind = exp::ScrubberKind::kWaiting;
    c.scrubber.strategy.kind = exp::StrategyKind::kSequential;
    c.scrubber.strategy.request_bytes = 256 * 1024;
    c.run_for = 8 * kHour;
    c.daemon.devices = devices;
    c.daemon.util_min = 0.2;
    c.daemon.util_max = 0.5;
    c.daemon.util_seed = exp::task_seed(seed_, 4 * i + 2);
    c.daemon.target_passes = 1;
    c.daemon.checkpoint_interval = kMinute;
    c.daemon.client_commands = commands;
    c.daemon.client_interval = std::max<SimTime>(c.run_for / commands, 2);
    c.daemon.client_seed = exp::task_seed(seed_, 4 * i + 3);
    // An idle-device pass takes ~60% of the horizon at a 25% duty cycle,
    // as in pscrubd_sim: utilisation leaves a mix of done and running
    // scrubs at the end.
    const SimTime step = std::max<SimTime>(
        paced_service(c, 0.6 * to_seconds(c.run_for) / 3600.0), 8);
    c.daemon.pacing.request_service = step / 4;
    c.daemon.pacing.request_spacing = step - step / 4;
    c.fault.enabled = true;
    c.fault.seed = exp::task_seed(seed_ ^ 0xdaeULL, i);
    c.fault.lse.burst_interarrival_mean = c.run_for / 4;
    c.fault.lse.burst_span_bytes = 64LL << 20;
    return c;
  }

  Spans& spans_;
  std::uint64_t seed_ = 1;
  std::vector<exp::ScenarioConfig> fleets_;
  std::vector<exp::ScenarioConfig> daemons_;
  obs::Timeline timeline_;  // disabled: PSCRUB_TIMELINE cannot reach it
  fleet::FleetResult fleet_;
  daemon::DaemonResult daemon_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet(const Params& params, Spans& spans) {
  return std::make_unique<FleetWorkload>(params, spans);
}

}  // namespace perfbench
