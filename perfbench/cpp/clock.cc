// pscrub-lint: allow-file(wall-clock) -- the benchmark's only clock reads.
#include "clock.h"

#include <sys/resource.h>

#include <chrono>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Spans::set_context(Phase phase, std::int64_t rep, std::int64_t job) {
  phase_ = phase;
  rep_ = rep;
  job_ = job;
}

Spans::Scope::Scope(Spans& spans, const char* name) {
  if (!spans.enabled_) return;
  spans_ = &spans;
  Span s;
  s.id = static_cast<std::int64_t>(spans.spans_.size()) + 1;
  s.parent = spans.open_.empty()
                 ? 0
                 : spans.spans_[spans.open_.back()].id;
  s.phase = spans.phase_;
  s.rep = spans.rep_;
  s.job = spans.job_;
  s.name = name;
  index_ = spans.spans_.size();
  spans.spans_.push_back(std::move(s));
  spans.open_.push_back(index_);
  spans.spans_[index_].start_ns = now_ns();
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  Span& s = spans_->spans_[index_];
  s.end_ns = now_ns();
  s.dur_ns = s.end_ns - s.start_ns;
  spans_->open_.pop_back();
}

void Spans::add_summed(const char* name, std::int64_t dur_ns,
                       std::int64_t calls) {
  if (!enabled_) return;
  Span s;
  s.id = static_cast<std::int64_t>(spans_.size()) + 1;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.phase = phase_;
  s.rep = rep_;
  s.job = job_;
  s.name = name;
  s.dur_ns = dur_ns;
  s.calls = calls;
  spans_.push_back(std::move(s));
}

void Spans::count(const char* name, std::int64_t value) {
  if (!enabled_) return;
  counts_.push_back({phase_, rep_, job_, name, value});
}

namespace {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kSetup: return "setup";
    case Phase::kWarmup: return "warmup";
    case Phase::kJob: return "job";
  }
  return "?";
}

}  // namespace

void Spans::write_json_members(std::ostream& os) const {
  os << "\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n  " : "\n  ") << "{\"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"phase\": \""
       << phase_name(s.phase) << "\", \"rep\": " << s.rep
       << ", \"job\": " << s.job << ", \"name\": \"" << s.name
       << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"dur_ns\": " << s.dur_ns << ", \"calls\": " << s.calls << "}";
  }
  os << "],\n\"counts\": [";
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const Count& c = counts_[i];
    os << (i ? ",\n  " : "\n  ") << "{\"phase\": \"" << phase_name(c.phase)
       << "\", \"rep\": " << c.rep << ", \"job\": " << c.job
       << ", \"name\": \"" << c.name << "\", \"value\": " << c.value << "}";
  }
  os << "]";
}

}  // namespace perfbench
