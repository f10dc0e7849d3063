// replay: event-driven replay of foreground impact (Figs 6-7).
//
// Set-up cuts a 30-minute window with a fixed record count out of each
// disk's thinned trace. A job builds and starts one exp::Scenario (CFQ,
// trace replay, one of Fig 7's seven scrubber configurations), drives it
// to the end of the window with sim().run_until, and computes the
// response-time ECDF. Only
// this workload exercises the event core, the disk model, the CFQ elevator,
// the replay workload and the event-driven scrubber.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <vector>

#include "checks.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace pscrub;

struct WindowInput {
  const char* disk;
  /// Records in the window: below the disk's busiest 30 minutes for every
  /// seed tried (HPc6t8d0 >= 20.2k, MSRusr2 >= 15.0k over seeds 1-30).
  std::size_t records;
};
constexpr WindowInput kInputs[] = {{"HPc6t8d0", 18'000}, {"MSRusr2", 14'000}};
constexpr SimTime kWindow = 30 * kMinute;

struct ScrubCase {
  bool scrubber;
  bool staggered;
  bool cfq_idle;
  SimTime delay;
};

/// Fig 7's seven configurations.
constexpr ScrubCase kCases[] = {
    {false, false, false, 0},
    {true, false, true, 0},
    {true, true, true, 0},
    {true, false, false, 0},
    {true, true, false, 0},
    {true, false, false, 64 * kMillisecond},
    {true, true, false, 64 * kMillisecond},
};
constexpr std::size_t kCaseCount = std::size(kCases);
/// The warm-up job's own input: a delay no timed job uses.
constexpr ScrubCase kWarmupCase = {true, false, false, 16 * kMillisecond};

/// The `window`-long slice of `t` whose record count is closest to
/// `target` (earliest on ties), re-based to time zero. A fixed load keeps
/// the input size of a job the same across seeds: the busiest window of
/// these traces holds 15k-25k records depending on the seed.
trace::Trace window_near(const trace::Trace& t, SimTime window,
                         std::size_t target) {
  const std::vector<trace::TraceRecord>& recs = t.records;
  std::size_t best_begin = 0;
  std::size_t best_miss = SIZE_MAX;
  std::size_t end = 0;
  for (std::size_t begin = 0; begin < recs.size(); ++begin) {
    while (end < recs.size() &&
           recs[end].arrival - recs[begin].arrival < window) {
      ++end;
    }
    const std::size_t count = end - begin;
    const std::size_t miss = count > target ? count - target : target - count;
    if (miss < best_miss) {
      best_miss = miss;
      best_begin = begin;
    }
  }
  trace::Trace out;
  out.name = t.name;
  out.duration = window;
  if (recs.empty()) return out;
  const SimTime base = recs[best_begin].arrival;
  for (std::size_t i = best_begin;
       i < recs.size() && recs[i].arrival - base < window; ++i) {
    trace::TraceRecord r = recs[i];
    r.arrival -= base;
    out.records.push_back(r);
  }
  return out;
}

exp::ScenarioConfig replay_config(const trace::Trace& window,
                                  const ScrubCase& c) {
  exp::ScenarioConfig cfg;
  cfg.disk.kind = exp::DiskKind::kUltrastar15k450;
  cfg.scheduler = exp::SchedulerKind::kCfq;
  cfg.workload.kind = exp::WorkloadKind::kTraceReplay;
  cfg.workload.trace = &window;
  cfg.workload.keep_response_samples = true;
  if (c.scrubber) {
    cfg.scrubber.kind = exp::ScrubberKind::kBackToBack;
    cfg.scrubber.priority = c.cfq_idle ? block::IoPriority::kIdle
                                       : block::IoPriority::kBestEffort;
    cfg.scrubber.inter_request_delay = c.delay;
    cfg.scrubber.strategy.kind = c.staggered ? exp::StrategyKind::kStaggered
                                             : exp::StrategyKind::kSequential;
    cfg.scrubber.strategy.request_bytes = 64 * 1024;
    cfg.scrubber.strategy.regions = 128;
  }
  // A minute past the window lets the last requests complete.
  cfg.run_for = kWindow + kMinute;
  return cfg;
}

class ReplayWorkload final : public Workload {
 public:
  ReplayWorkload(const Params& params, Spans& spans) : spans_(spans) {
    const double cap = params.tiny ? 20'000.0 : 1'000'000.0;
    for (std::size_t k = 0; k < std::size(kInputs); ++k) {
      trace::TraceSpec spec = *trace::spec_by_name(kInputs[k].disk);
      spec.seed = exp::task_seed(params.seed, k);
      const double scale = std::min(
          1.0, cap / static_cast<double>(spec.target_requests));
      std::optional<trace::SyntheticGenerator> gen;
      {
        const Spans::Scope span(spans_, "trace.calibrate");
        gen.emplace(spec);
      }
      trace::Trace full;
      {
        const Spans::Scope span(spans_, "trace.generate");
        full = gen->generate_trace(scale);
      }
      const std::size_t records =
          params.tiny ? kInputs[k].records / 50 : kInputs[k].records;
      windows_.push_back(window_near(full, kWindow, records));
    }
  }

  std::size_t inputs() const override {
    return windows_.size() * kCaseCount;
  }

  void warm_up() override { last_ = replay(windows_[0], kWarmupCase); }

  void run(std::size_t i) override {
    last_ = replay(windows_[i / kCaseCount], kCases[i % kCaseCount]);
  }

  JobCheck check(std::size_t) override {
    JobCheck c;
    c.error = check_replay_job(last_);
    c.units = static_cast<double>(last_.window_records);
    Digest d;
    d.add(last_.events);
    d.add(last_.workload_requests);
    d.add(last_.scrub_requests);
    d.add(last_.collisions);
    for (double q : last_.quantiles) d.add(q);
    c.digest = d.value();
    return c;
  }

  std::string check_run() override { return ""; }

 private:
  ReplayJobResult replay(const trace::Trace& window, const ScrubCase& c) {
    const exp::ScenarioConfig cfg = replay_config(window, c);
    ReplayJobResult r;
    r.scrubber = c.scrubber;
    r.window_records = static_cast<std::int64_t>(window.size());
    std::unique_ptr<exp::Scenario> scenario;
    {
      const Spans::Scope span(spans_, "exp.scenario_build");
      scenario = std::make_unique<exp::Scenario>(cfg);
      scenario->start();
    }
    {
      const Spans::Scope span(spans_, "sim.run");
      r.events = static_cast<std::int64_t>(
          scenario->sim().run_until(cfg.run_for));
    }
    exp::ScenarioResult result = scenario->take_result();
    r.workload_requests = result.workload_requests;
    r.responses = static_cast<std::int64_t>(result.response_seconds.size());
    r.scrub_requests = result.scrub_requests;
    r.collisions = result.collisions;
    {
      const Spans::Scope span(spans_, "stats.ecdf");
      const stats::Ecdf ecdf(std::move(result.response_seconds));
      for (double p : {0.5, 0.9, 0.99}) r.quantiles.push_back(ecdf.quantile(p));
    }
    spans_.count("sim.events", r.events);
    spans_.count("workload.requests", r.workload_requests);
    spans_.count("core.scrub_requests", r.scrub_requests);
    spans_.count("block.collisions", r.collisions);
    return r;
  }

  Spans& spans_;
  std::vector<trace::Trace> windows_;
  ReplayJobResult last_;
};

}  // namespace

std::unique_ptr<Workload> make_replay(const Params& params, Spans& spans) {
  return std::make_unique<ReplayWorkload>(params, spans);
}

}  // namespace perfbench
