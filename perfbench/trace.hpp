// In-memory span recorder for the benchmark driver. A span is (name,
// start, end, parent) around one call into a program module, timed on
// std::chrono::steady_clock from the tracer's creation. Spans stay in
// memory and are written out once, at the end of the run. A disabled
// tracer records nothing, so the untraced run pays one branch per call.
//
// Single-threaded: the driver opens and closes spans from its own thread
// only (the program's worker threads are never traced from here).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span under the innermost open one; returns its id, or -1
  /// when tracing is off.
  int open(std::string name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now_ns(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Writes every span as one JSON document; returns false on I/O error.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"clock\": \"steady_clock\", \"unit\": \"ns\", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i
          << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
          << "\", \"start\": " << s.start_ns << ", \"end\": " << s.end_ns
          << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

private:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
public:
  Span(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.open(std::move(name))) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
