#ifndef SMR_PERFBENCH_TRACER_H_
#define SMR_PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds; every duration the benchmark reports comes from
/// here, so untraced and traced numbers share one clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// In-memory span recorder for the traced run. A span is (name, start,
/// end, parent); spans opened with Open() nest under the innermost open
/// span of the driving thread, and spans recorded with Add() from any
/// thread (the spill wrapper's file calls) name their parent explicitly.
/// Nothing is written until WriteChromeTrace(), so the only cost inside a
/// measured interval is a clock read and a vector push.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;  // -1 while open
    int id = 0;
    int parent = -1;      // -1 = root
    unsigned thread = 0;  // 0 = the driving thread
  };

  /// Opens a span under the innermost open span; driving thread only.
  int Open(std::string name);

  /// Closes span `id` (which must be the innermost open one) and returns
  /// its duration in seconds.
  double Close(int id);

  /// Records a finished span; safe to call from any thread.
  void Add(std::string name, int64_t start_ns, int64_t end_ns, int parent,
           unsigned thread);

  /// Innermost open span of the driving thread (-1 when none).
  int current() const;

  /// Durations, in seconds, of every closed span called `name`, in
  /// recording order.
  std::vector<double> Durations(std::string_view name) const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps relative to the first span; id and parent in
  /// args). `metadata` is a JSON object emitted as the file's
  /// "otherData". Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata) const;

  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span ids (driving thread)
};

/// Times the enclosing scope, recording it as a span when `tracer` is not
/// null (the untraced run passes null and keeps only the duration).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Open(std::move(name)) : -1),
        start_ns_(NowNs()) {}
  ~ScopedSpan() {
    if (!closed_) Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span and returns its duration in seconds.
  double Close() {
    closed_ = true;
    return tracer_ != nullptr ? tracer_->Close(id_)
                              : Seconds(NowNs() - start_ns_);
  }

 private:
  Tracer* tracer_;
  int id_;
  int64_t start_ns_;
  bool closed_ = false;
};

}  // namespace perfbench

#endif  // SMR_PERFBENCH_TRACER_H_
