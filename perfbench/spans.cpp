#include "spans.h"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/clock.h"
#include "obs/metrics.h"

namespace perfbench {

int SpanLog::open(std::string name, std::uint64_t job) {
  Span s;
  s.name = std::move(name);
  s.job = job;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = sani::obs::Clock::now_ns();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (stack_.empty() || stack_.back() != id)
    throw std::logic_error("span closed out of order: " + spans_[id].name);
  spans_[id].end_ns = sani::obs::Clock::now_ns();
  stack_.pop_back();
}

void SpanLog::add_phase(int parent, std::string name, std::int64_t ns) {
  const Span& p = spans_.at(parent);
  auto [it, fresh] = phase_end_.try_emplace(parent, p.start_ns);
  Span s;
  s.name = std::move(name);
  s.job = p.job;
  s.parent = parent;
  s.start_ns = it->second;
  s.end_ns = s.start_ns + ns;
  it->second = s.end_ns;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> SpanLog::self_ms() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) *
                   1e-6;
  }
  return out;
}

double SpanLog::duration_ms(int id) const {
  const Span& s = spans_.at(id);
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
}

double SpanLog::total_ms(const std::string& name) const {
  double ms = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  return ms;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\""
       << sani::obs::json_escape(s.name)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(s.start_ns - t0) * 1e-3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"job\":" << s.job << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
