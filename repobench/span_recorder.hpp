#pragma once

// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its calls into the
// library's public functions (nothing inside the library is
// instrumented). Each span has a name, start and end in nanoseconds
// since the recorder was created, the index of its parent span (-1 for
// a root), and the id of the unit of work it belongs to. The recorder is
// single-threaded: only the benchmark's driving thread opens spans.
// Spans whose interval the library reports itself (serve queue/service
// times, Fock phase times) are added with add().
//
// Nothing is written while the run is measured; write_json() dumps the
// whole buffer once the run has ended.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace repobench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  /// Opens a span as a child of the innermost open span.
  int begin(const char* name, int unit) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    const int id = add(name, now_ns(), -1, parent, unit);
    stack_.push_back(id);
    return id;
  }

  /// Closes the innermost open span, which must be `id`.
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Records a span with a known interval; returns its id.
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, int unit) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, unit});
    return static_cast<int>(spans_.size()) - 1;
  }

  std::size_t size() const { return spans_.size(); }

  std::int64_t start_of(int id) const {
    return spans_[static_cast<std::size_t>(id)].start_ns;
  }

  /// [{"name":..,"start":..,"end":..,"parent":..,"unit":..}, ...]
  void write_json(std::ostream& out) const {
    out << '[';
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name
          << "\",\"start\":" << s.start_ns << ",\"end\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"unit\":" << s.unit << '}';
    }
    out << ']';
  }

 private:
  struct Span {
    const char* name;  // string literal owned by the caller
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    int unit;
  };

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null recorder makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int unit)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->begin(name, unit) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace repobench
