// idle: streamed trace characterisation (Figs 8-13, Table II, the
// `trace_tool summarize` analyses) over the busiest-63 catalog disks.
//
// Set-up calibrates one SyntheticGenerator per disk with its volume capped.
// A job streams one disk through trace::IdleAccumulator (no trace is
// materialised) and computes the Table II summary, the Fig 10 tail weight,
// the Figs 11-13 residual-life points and the Fig 9 ANOVA period.
#include <algorithm>
#include <iterator>
#include <vector>

#include "checks.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace pscrub;

class IdleWorkload final : public Workload {
 public:
  IdleWorkload(const Params& params, Spans& spans)
      : spans_(spans), profile_(disk::hitachi_ultrastar_15k450()) {
    std::vector<trace::TraceSpec> specs = trace::busiest63_specs();
    const std::size_t disks = params.tiny ? 4 : specs.size();
    const std::int64_t cap = params.tiny ? 5'000 : 250'000;
    // One generator per disk plus the warm-up job's own, last.
    for (std::size_t i = 0; i <= disks; ++i) {
      trace::TraceSpec spec = specs[i % disks];
      spec.seed = exp::task_seed(params.seed, i);
      spec.target_requests = std::min(spec.target_requests, cap);
      const Spans::Scope span(spans_, "trace.calibrate");
      gens_.emplace_back(std::move(spec));  // the constructor calibrates
    }
    durations_.resize(gens_.size());
    for (std::size_t i = 0; i < gens_.size(); ++i) {
      durations_[i] = specs[i % disks].duration;
    }
    sample_ = static_cast<std::size_t>(params.seed % disks);
  }

  std::size_t inputs() const override { return gens_.size() - 1; }

  void warm_up() override { last_ = analyse(gens_.size() - 1); }

  void run(std::size_t i) override { last_ = analyse(i); }

  JobCheck check(std::size_t) override {
    JobCheck c;
    c.error = check_idle_job(last_);
    c.units = static_cast<double>(last_.records);
    Digest d;
    d.add(last_.records);
    d.add(static_cast<std::int64_t>(last_.idle_seconds.size()));
    d.add(last_.summary.mean);
    d.add(last_.summary.cov);
    d.add(last_.tail_weight);
    for (double v : last_.mean_residual) d.add(v);
    for (double v : last_.residual_p01) d.add(v);
    for (double v : last_.usable) d.add(v);
    d.add(static_cast<std::uint64_t>(last_.period.period_hours));
    c.digest = d.value();
    return c;
  }

  std::string check_run() override {
    // One disk per run, streamed and materialised: the same intervals.
    const IdleJobResult streamed = analyse(sample_);
    const trace::Trace t = gens_[sample_].generate_trace(1.0);
    const trace::IdleExtraction m = trace::extract_idle_intervals(
        t, core::make_foreground_service(profile_));
    return check_idle_stream_matches(streamed.idle_seconds, m.idle_seconds);
  }

 private:
  IdleJobResult analyse(std::size_t i) {
    IdleJobResult r;
    trace::IdleAccumulator acc(core::make_foreground_service(profile_));
    r.hourly.assign(static_cast<std::size_t>(
                        (durations_[i] + kHour - 1) / kHour),
                    0.0);
    const auto add = [&acc, &r](const trace::TraceRecord& rec) {
      acc.add(rec);
      const auto hour = static_cast<std::size_t>(rec.arrival / kHour);
      if (hour < r.hourly.size()) r.hourly[hour] += 1.0;
    };
    {
      const Spans::Scope span(spans_, "trace.generate");
      if (spans_.enabled()) {
        SummedTimer sink;
        r.records = gens_[i].generate([&](const trace::TraceRecord& rec) {
          sink.start();
          add(rec);
          sink.stop();
        });
        spans_.add_summed("trace.idle_accumulate", sink.total_ns(),
                          sink.calls());
      } else {
        r.records = gens_[i].generate(add);
      }
    }
    {
      const Spans::Scope span(spans_, "trace.idle_accumulate");
      r.idle_seconds = acc.finish().idle_seconds;
    }
    {
      const Spans::Scope span(spans_, "stats.analyze");
      r.summary = stats::summarize(r.idle_seconds);
      const stats::ResidualLife life(r.idle_seconds);
      r.tail_weight = life.tail_weight(0.15);
      for (double x : kResidualPoints) {
        r.mean_residual.push_back(life.mean_residual(x));
        r.residual_p01.push_back(life.residual_quantile(x, 0.01));
        r.usable.push_back(life.usable_fraction(x));
      }
      r.period = stats::detect_period(r.hourly);
    }
    spans_.count("trace.records", r.records);
    spans_.count("trace.idle_intervals",
                 static_cast<std::int64_t>(r.idle_seconds.size()));
    return r;
  }

  Spans& spans_;
  disk::DiskProfile profile_;
  std::vector<trace::SyntheticGenerator> gens_;
  std::vector<SimTime> durations_;
  std::size_t sample_ = 0;
  IdleJobResult last_;
};

}  // namespace

std::unique_ptr<Workload> make_idle(const Params& params, Spans& spans) {
  return std::make_unique<IdleWorkload>(params, spans);
}

}  // namespace perfbench
