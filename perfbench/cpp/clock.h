// Wall-clock timing and in-memory spans for the benchmark program.
//
// Every wall-clock read of the benchmark lives in clock.cc. The libraries
// never see a clock: perfbench times its calls into them from outside.
//
// Spans are off unless the run is traced. A span records its name, start,
// end, parent span and job id; per-record calls (the generator sink) are
// summed per job into one span via SummedTimer instead of one span each.
// Spans stay in memory and are written as JSON once the run ends.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, nanoseconds.
std::int64_t now_ns();

/// Peak resident set of this process, MB.
double peak_rss_mb();

enum class Phase : std::uint8_t { kSetup, kWarmup, kJob };

class Spans {
 public:
  struct Span {
    std::int64_t id = 0;
    std::int64_t parent = 0;  // 0: no parent
    Phase phase = Phase::kSetup;
    std::int64_t rep = 0;     // setup repetition
    std::int64_t job = -1;    // -1 outside jobs
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t dur_ns = 0;  // end - start, or the summed call time
    std::int64_t calls = 1;
  };
  struct Count {
    Phase phase = Phase::kSetup;
    std::int64_t rep = 0;
    std::int64_t job = -1;
    std::string name;
    std::int64_t value = 0;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Attributes the spans and counts that follow.
  void set_context(Phase phase, std::int64_t rep, std::int64_t job);

  /// Opens a span as a child of the innermost open one; no-op when off.
  class Scope {
   public:
    Scope(Spans& spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_ = nullptr;
    std::size_t index_ = 0;
  };

  /// Records `calls` per-record calls totalling `dur_ns` as one span under
  /// the innermost open span.
  void add_summed(const char* name, std::int64_t dur_ns, std::int64_t calls);
  /// Records a count at the current context; no-op when off.
  void count(const char* name, std::int64_t value);

  /// {"spans": [...], "counts": [...]} members (no enclosing braces).
  void write_json_members(std::ostream& os) const;

 private:
  bool enabled_ = false;
  Phase phase_ = Phase::kSetup;
  std::int64_t rep_ = 0;
  std::int64_t job_ = -1;
  std::vector<Span> spans_;
  std::vector<Count> counts_;
  std::vector<std::size_t> open_;  // indices into spans_
};

/// Sums the duration of many short calls: start()/stop() around each.
class SummedTimer {
 public:
  void start() { started_ = now_ns(); }
  void stop() {
    total_ns_ += now_ns() - started_;
    ++calls_;
  }
  std::int64_t total_ns() const { return total_ns_; }
  std::int64_t calls() const { return calls_; }

 private:
  std::int64_t started_ = 0;
  std::int64_t total_ns_ = 0;
  std::int64_t calls_ = 0;
};

}  // namespace perfbench
