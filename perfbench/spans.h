#pragma once
// In-memory span log of the traced run.
//
// Spans are opened and closed by the benchmark's own code around each public
// call into a library layer; nothing inside the library is instrumented and
// the library's own tracer stays off.  A span records its name, start, end,
// parent span and the job it belongs to.  The log is written out once, after
// the run, as Chrome trace events (loadable in Perfetto).
//
// Self time of a span is its duration minus the durations of its children.
// Children never overlap: real children nest in one thread's call sequence,
// and phase splits the library reports (add_phase) are laid end to end
// inside their parent.  The self time of a root span ("job") is the share of
// the job's wall time no layer span covers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t job = 0;
};

class SpanLog {
 public:
  /// Opens a span under the innermost open one; returns its id.
  int open(std::string name, std::uint64_t job);
  void close(int id);

  /// Appends a closed child of `parent` lasting `ns` nanoseconds, placed
  /// right after the phases already added to that parent.  For phase times
  /// a library call reports about itself (no timestamps of its own).
  void add_phase(int parent, std::string name, std::int64_t ns);

  /// Self time per span name, in milliseconds, summed over all spans.
  std::map<std::string, double> self_ms() const;

  /// Duration of one closed span, in milliseconds.
  double duration_ms(int id) const;

  /// Total duration of the spans named `name`, in milliseconds.
  double total_ms(const std::string& name) const;

  /// Writes the spans as Chrome trace events; false if the file cannot be
  /// written.
  bool write_chrome_trace(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<int, std::int64_t> phase_end_;  // parent id -> end of last phase
};

/// RAII span; a null log makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t job)
      : log_(log), id_(log ? log->open(name, job) : -1) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early (idempotent).
  void close() {
    if (log_ && !closed_) log_->close(id_);
    closed_ = true;
  }
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
  bool closed_ = false;
};

}  // namespace perfbench
