// tune: scrub tuning on materialised traces (Table III, Fig 14, the
// `policy_autotune` procedure).
//
// Set-up generates each disk's trace thinned to a fixed volume with the
// same SyntheticGenerator(spec).generate_trace(scale) call the benches
// make, round-trips it through the CSV codec in memory (the path real
// traces take), then precomputes service times and the idle
// decomposition. A job tunes one (disk, slowdown goal) pair with
// core::optimize and compares the choice against Lossless Waiting,
// AR+Waiting and Oracle through exp::run_policy_scenario, which replays
// the trace for those policies.
#include <algorithm>
#include <iterator>
#include <optional>
#include <sstream>
#include <vector>

#include "checks.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace pscrub;

constexpr const char* kDisks[] = {"HPc6t8d0", "HPc6t5d1", "MSRusr2",
                                  "MSRprn1",  "HPc6t5d0", "HPc3t3d0"};
constexpr double kGoalsMs[] = {1.0, 2.0, 4.0};
constexpr std::size_t kGoals = std::size(kGoalsMs);
/// The warm-up job's own input: disk 0 under a goal no timed job uses.
constexpr double kWarmupGoalMs = 8.0;

struct TuneJobResult {
  core::SizeThresholdChoice best;
  core::PolicySimResult lossless;
  core::PolicySimResult ar_waiting;
  core::PolicySimResult oracle;
};

class TuneWorkload final : public Workload {
 public:
  TuneWorkload(const Params& params, Spans& spans) : spans_(spans) {
    const disk::DiskProfile profile = disk::hitachi_ultrastar_15k450();
    scrub_service_ = core::make_scrub_service(profile);
    const std::size_t count = params.tiny ? 2 : std::size(kDisks);
    const double cap = params.tiny ? 25'000.0 : 250'000.0;
    disks_.resize(count);
    for (std::size_t k = 0; k < count; ++k) {
      Disk& d = disks_[k];
      trace::TraceSpec spec = *trace::spec_by_name(kDisks[k]);
      spec.seed = exp::task_seed(params.seed, k);
      const double scale = std::min(
          1.0, cap / static_cast<double>(spec.target_requests));
      std::optional<trace::SyntheticGenerator> gen;
      {
        const Spans::Scope span(spans_, "trace.calibrate");
        gen.emplace(spec);
      }
      trace::Trace generated;
      {
        const Spans::Scope span(spans_, "trace.generate");
        generated = gen->generate_trace(scale);
      }
      std::string csv;
      {
        const Spans::Scope span(spans_, "trace.csv_write");
        std::ostringstream os;
        trace::write_csv(generated, os);
        csv = std::move(os).str();
      }
      {
        const Spans::Scope span(spans_, "trace.csv_read");
        std::istringstream is(csv);
        d.trace = trace::read_csv(is, spec.name);
      }
      if (roundtrip_error_.empty()) {
        roundtrip_error_ = check_trace_roundtrip(generated, d.trace);
      }
      {
        const Spans::Scope span(spans_, "core.services");
        d.services = core::precompute_services(
            d.trace, core::make_foreground_service(profile));
      }
      {
        const Spans::Scope span(spans_, "core.decompose");
        d.decomp = core::IdleDecomposition::from_trace(d.trace, d.services);
      }
      const std::vector<SimTime>& gaps = d.decomp.sorted_gaps;
      d.median_gap = gaps.empty() ? kMillisecond : gaps[gaps.size() / 2];
      spans_.count("trace.records",
                   static_cast<std::int64_t>(d.trace.size()));
      spans_.count("core.idle_intervals", d.decomp.interval_count());
    }
  }

  std::size_t inputs() const override { return disks_.size() * kGoals; }

  void warm_up() override { last_ = tune(0, kWarmupGoalMs); }

  void run(std::size_t i) override {
    last_ = tune(i / kGoals, kGoalsMs[i % kGoals]);
  }

  JobCheck check(std::size_t i) override {
    const Disk& d = disks_[i / kGoals];
    const core::SlowdownGoal goal = goal_of(kGoalsMs[i % kGoals]);
    const core::SizeThresholdChoice& best = last_.best;
    JobCheck c;
    c.units = static_cast<double>(d.trace.size());
    if (best.request_bytes <= 0) {
      c.error = "tune: no feasible (size, threshold) choice";
      return c;
    }
    // The chosen point replayed through the reference oracle.
    core::WaitingPolicy policy(best.threshold);
    core::PolicySimConfig sim;
    sim.services = &d.services;
    sim.scrub_service = scrub_service_;
    sim.sizer = core::ScrubSizer::fixed(best.request_bytes);
    const core::PolicySimResult replayed =
        core::run_policy_sim_reference(d.trace, policy, sim);
    const auto records = static_cast<std::int64_t>(d.trace.size());
    c.error = check_tune_choice(best, config(d), goal, replayed);
    for (const core::PolicySimResult* r :
         {&last_.lossless, &last_.ar_waiting, &last_.oracle}) {
      if (c.error.empty()) c.error = check_policy_result(*r, records);
    }
    Digest dg;
    dg.add(best.request_bytes);
    dg.add(best.threshold);
    dg.add(best.scrub_mb_s);
    dg.add(best.achieved_mean_slowdown_ms);
    dg.add(best.collision_rate);
    for (const core::PolicySimResult* r :
         {&last_.lossless, &last_.ar_waiting, &last_.oracle}) {
      dg.add(r->scrub_mb_s);
      dg.add(r->mean_slowdown_ms);
      dg.add(r->collision_rate);
    }
    c.digest = dg.value();
    return c;
  }

  std::string check_run() override { return roundtrip_error_; }

 private:
  struct Disk {
    trace::Trace trace;
    std::vector<SimTime> services;
    core::IdleDecomposition decomp;
    SimTime median_gap = 0;
  };

  static core::SlowdownGoal goal_of(double ms) {
    core::SlowdownGoal goal;
    goal.mean = from_seconds(ms * 1e-3);
    return goal;
  }

  core::OptimizerConfig config(const Disk& d) const {
    core::OptimizerConfig oc;
    oc.scrub_service = scrub_service_;
    oc.services = &d.services;
    oc.decomposition = &d.decomp;
    oc.workers = 1;
    return oc;
  }

  TuneJobResult tune(std::size_t k, double goal_ms) {
    const Disk& d = disks_[k];
    TuneJobResult r;
    {
      const Spans::Scope span(spans_, "core.optimize");
      r.best = core::optimize(d.trace, config(d), goal_of(goal_ms));
    }
    spans_.count("core.optimize_intervals", d.decomp.interval_count());
    if (r.best.request_bytes <= 0) return r;
    {
      const Spans::Scope span(spans_, "core.reference_replay");
      exp::PolicySimScenario s;
      s.trace = &d.trace;
      s.services = &d.services;
      s.sizer = core::ScrubSizer::fixed(r.best.request_bytes);
      s.policy.threshold = r.best.threshold;
      s.policy.kind = exp::PolicyKind::kLosslessWaiting;
      r.lossless = exp::run_policy_scenario(s, &timeline_);
      s.policy.kind = exp::PolicyKind::kArWaiting;
      s.policy.secondary = d.median_gap;  // AR cutoff: the median interval
      r.ar_waiting = exp::run_policy_scenario(s, &timeline_);
      s.policy.kind = exp::PolicyKind::kOracle;
      s.policy.secondary = 0;
      r.oracle = exp::run_policy_scenario(s, &timeline_);
    }
    spans_.count("core.replayed_records",
                 3 * static_cast<std::int64_t>(d.trace.size()));
    return r;
  }

  Spans& spans_;
  core::ScrubServiceFn scrub_service_;
  std::vector<Disk> disks_;
  std::string roundtrip_error_;
  obs::Timeline timeline_;  // disabled: PSCRUB_TIMELINE cannot reach it
  TuneJobResult last_;
};

}  // namespace

std::unique_ptr<Workload> make_tune(const Params& params, Spans& spans) {
  return std::make_unique<TuneWorkload>(params, spans);
}

}  // namespace perfbench
