// perfbench: runs one workload of the repository benchmark and times it.
//
//   perfbench --workload idle|tune|replay|fleet --seed N --seconds S
//             [--trace 0|1] [--spans PATH] [--tiny]
//
// The workload is set up (every input produced through the library, plus
// one untimed warm-up job), then jobs run in whole cycles over its inputs
// for about --seconds, in one process and one thread. Every job's output
// is checked, untimed. Peak memory is read next, then the run-level
// checks run, then the set-up is repeated twice more so set-up time can
// be reported as a median of three. With --trace 1, cycles
// alternate untraced and traced, and the spans of the traced cycles and
// of every set-up are written to --spans.
//
// The last line of stdout is one JSON object with the raw timings;
// perfbench/run.py turns it into the benchmark's metrics.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "arg_parse.h"
#include "checks.h"
#include "clock.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  Params params;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

struct JobRecord {
  std::size_t input = 0;
  std::int64_t cycle = 0;
  bool traced = false;
  std::int64_t wall_ns = 0;
  double units = 0.0;
  std::string error;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload idle|tune|replay|fleet --seed N "
               "--seconds S\n"
               "          [--trace 0|1] [--spans PATH] [--tiny]\n",
               argv0);
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

using Factory = std::function<std::unique_ptr<Workload>(const Params&,
                                                        Spans&)>;

const std::map<std::string, Factory>& factories() {
  static const std::map<std::string, Factory> table = {
      {"idle", make_idle},
      {"tune", make_tune},
      {"replay", make_replay},
      {"fleet", make_fleet},
  };
  return table;
}

int run(const Options& opt) {
  const Factory& make = factories().at(opt.workload);
  Spans spans;

  // Set-up: produce the inputs and run one untimed warm-up job.
  std::vector<std::int64_t> setup_ns;
  const auto set_up = [&](std::int64_t rep) {
    spans.set_enabled(opt.trace);
    spans.set_context(Phase::kSetup, rep, -1);
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Workload> made = make(opt.params, spans);
    spans.set_context(Phase::kWarmup, rep, -1);
    made->warm_up();
    setup_ns.push_back(now_ns() - t0);
    spans.set_enabled(false);
    return made;
  };
  const std::unique_ptr<Workload> w = set_up(0);
  const std::size_t inputs = w->inputs();

  // Whole cycles over the inputs. The first one sizes the rest so the
  // timed work adds up to about --seconds; traced runs alternate untraced
  // and traced cycles, so the tracing overhead is measured on equal work.
  std::vector<JobRecord> jobs;
  std::vector<std::uint64_t> first_digest(inputs, 0);
  Digest run_digest;
  std::int64_t cycles = opt.trace ? 2 : 1;
  std::int64_t first_cycle_ns = 0;
  for (std::int64_t cycle = 0; cycle < cycles; ++cycle) {
    const bool traced = opt.trace && cycle % 2 == 1;
    for (std::size_t i = 0; i < inputs; ++i) {
      JobRecord job;
      job.input = i;
      job.cycle = cycle;
      job.traced = traced;
      spans.set_enabled(traced);
      spans.set_context(Phase::kJob, 0,
                        static_cast<std::int64_t>(jobs.size()));
      const std::int64_t t0 = now_ns();
      try {
        w->run(i);
      } catch (const std::exception& e) {
        job.error = std::string("threw: ") + e.what();
      }
      job.wall_ns = now_ns() - t0;
      spans.set_enabled(false);
      if (job.error.empty()) {
        const JobCheck c = w->check(i);
        job.error = c.error;
        job.units = c.units;
        if (cycle == 0) {
          first_digest[i] = c.digest;
          run_digest.add(c.digest);
        } else if (c.digest != first_digest[i] && job.error.empty()) {
          job.error = "result differs from the same input's first job";
        }
      }
      if (cycle == 0) first_cycle_ns += job.wall_ns;
      jobs.push_back(std::move(job));
    }
    if (cycle == 0) {
      const double per_cycle = static_cast<double>(first_cycle_ns) * 1e-9;
      const auto want = static_cast<std::int64_t>(
          std::llround(opt.seconds / std::max(per_cycle, 1e-9)));
      cycles = opt.trace ? 2 * std::max<std::int64_t>(1, want / 2)
                         : std::max<std::int64_t>(1, want);
    }
  }

  // Peak memory of one set-up plus the jobs, as a single run would see
  // it: read before the untimed run checks and the extra set-ups below.
  const double rss = peak_rss_mb();

  // Once-per-run checks against a second code path (untimed).
  const std::string run_error = w->check_run();

  // The extra set-ups only time set-up again; each instance is dropped.
  for (int rep = 1; rep < kSetups; ++rep) set_up(rep);

  std::int64_t failed = 0;
  for (const JobRecord& j : jobs) {
    if (!j.error.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s job %" PRId64 " (input %zu): %s\n",
                   opt.workload.c_str(), j.cycle, j.input, j.error.c_str());
    }
  }
  if (!run_error.empty()) {
    std::fprintf(stderr, "perfbench: %s run check: %s\n",
                 opt.workload.c_str(), run_error.c_str());
  }
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64,
                run_digest.value());

  std::ostringstream jobs_json;
  jobs_json << std::setprecision(17);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const JobRecord& j = jobs[k];
    jobs_json << (k ? ", " : "") << "{\"job\": " << k
              << ", \"input\": " << j.input << ", \"cycle\": " << j.cycle
              << ", \"traced\": " << (j.traced ? "true" : "false")
              << ", \"wall_ns\": " << j.wall_ns << ", \"units\": " << j.units
              << ", \"ok\": " << (j.error.empty() ? "true" : "false") << "}";
  }
  std::ostringstream setups_json;
  for (std::size_t k = 0; k < setup_ns.size(); ++k) {
    setups_json << (k ? ", " : "") << setup_ns[k];
  }

  if (opt.trace && !opt.spans_path.empty()) {
    std::ofstream os(opt.spans_path);
    os << "{\"workload\": " << json_string(opt.workload)
       << ", \"seed\": " << opt.params.seed << ",\n\"setup_ns\": ["
       << setups_json.str() << "],\n\"jobs\": [" << jobs_json.str()
       << "],\n";
    spans.write_json_members(os);
    os << "}\n";
    if (!os) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.spans_path.c_str());
      return 1;
    }
  }

  std::printf("perfbench %s: seed %" PRIu64 ", %zu inputs, %" PRId64
              " cycles, %zu jobs, %" PRId64 " failed, digest %s\n",
              opt.workload.c_str(), opt.params.seed, inputs, cycles,
              jobs.size(), failed, digest_hex);
  std::printf("{\"workload\": %s, \"seed\": %" PRIu64
              ", \"setup_ns\": [%s], \"jobs\": [%s], \"run_error\": %s, "
              "\"peak_rss_mb\": %.3f, \"digest\": \"%s\"}\n",
              json_string(opt.workload).c_str(), opt.params.seed,
              setups_json.str().c_str(), jobs_json.str().c_str(),
              json_string(run_error).c_str(), rss, digest_hex);
  return failed == 0 && run_error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using pscrub::examples::parse_double;
  using pscrub::examples::parse_ll;
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opt.params.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return perfbench::usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.params.seed = static_cast<std::uint64_t>(parse_ll(value, "--seed"));
    } else if (arg == "--seconds") {
      opt.seconds = parse_double(value, "--seconds");
    } else if (arg == "--trace") {
      opt.trace = parse_ll(value, "--trace") != 0;
    } else if (arg == "--spans") {
      opt.spans_path = value;
    } else {
      return perfbench::usage(argv[0]);
    }
  }
  if (perfbench::factories().count(opt.workload) == 0 ||
      !(opt.seconds > 0.0)) {
    return perfbench::usage(argv[0]);
  }
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
