#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {

int Tracer::Open(std::string name) {
  const int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = std::move(name);
  span.start_ns = start;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

double Tracer::Close(int id) {
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_.at(static_cast<size_t>(id));
  span.end_ns = end;
  const auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
  return Seconds(span.end_ns - span.start_ns);
}

void Tracer::Add(std::string name, int64_t start_ns, int64_t end_ns,
                 int parent, unsigned thread) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.thread = thread;
  spans_.push_back(std::move(span));
}

int Tracer::current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return open_.empty() ? -1 : open_.back();
}

std::vector<double> Tracer::Durations(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_ns >= 0) {
      out.push_back(Seconds(span.end_ns - span.start_ns));
    }
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& metadata) const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t origin = 0;
  if (!spans_.empty()) {
    origin = spans_.front().start_ns;
    for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  }
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata
      << ",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans_) {
    if (span.end_ns < 0) continue;
    // Span names are benchmark-chosen identifiers (letters, digits, '.',
    // '-', '_', ':'), so they need no JSON escaping.
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
        << ",\"ts\":" << static_cast<double>(span.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) / 1e3
        << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
        << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
