// The benchmark's workloads behind one interface.
//
// A workload is built from the run's seed (constructing it is the set-up:
// it produces every input through the library), then runs jobs over a
// fixed cycle of inputs. main.cc times the calls from outside; run() is
// the timed job, check() and check_run() are untimed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "clock.h"

namespace perfbench {

struct Params {
  std::uint64_t seed = 1;
  /// Tiny inputs for the smoke test; the benchmark itself never sets it.
  bool tiny = false;
};

struct JobCheck {
  /// Empty when every output check passed, else what failed.
  std::string error;
  /// Input units the job completed (the work_per_s numerator).
  double units = 0.0;
  /// FNV-1a digest of the job's results (reported, not gated).
  std::uint64_t digest = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Distinct job inputs; jobs cycle over them in order.
  virtual std::size_t inputs() const = 0;
  /// Untimed warm-up job on the workload's own warm-up input.
  virtual void warm_up() = 0;
  /// The timed job on input `i`; keeps its result for check().
  virtual void run(std::size_t i) = 0;
  /// Checks the result of the last run(i).
  virtual JobCheck check(std::size_t i) = 0;
  /// Once-per-run checks against a second code path ("" = pass).
  virtual std::string check_run() = 0;
};

std::unique_ptr<Workload> make_idle(const Params& params, Spans& spans);
std::unique_ptr<Workload> make_tune(const Params& params, Spans& spans);
std::unique_ptr<Workload> make_replay(const Params& params, Spans& spans);
std::unique_ptr<Workload> make_fleet(const Params& params, Spans& spans);

}  // namespace perfbench
