// In-memory span log for the traced run (README.md "Traced run").
//
// One span per call the benchmark makes into a layer of the service: name,
// start, end, parent span, and the number of items (packets, ops) the call
// handled. Each thread records into its own SpanLog, so recording takes no
// lock; span ids come from one shared counter so parents can point across
// threads. Spans stay in memory and are written once, at exit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  // string literal: one of the layer span names
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::uint64_t items = 0;
};

class SpanLog {
 public:
  SpanLog(std::atomic<std::uint32_t>& ids, Clock::time_point origin)
      : ids_(ids), origin_(origin) {}
  // A thread records through a pointer to its log.
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  [[nodiscard]] std::int64_t now_ns() const {
    return since_origin(Clock::now());
  }

  // The innermost span open in this log (0 = none): the default parent of
  // the next span, and the parent to hand to another thread's log.
  [[nodiscard]] std::uint32_t current() const {
    return open_.empty() ? parent_ : spans_[open_.back()].id;
  }

  // Opens a span under current().
  void open(const char* name) {
    spans_.push_back(make(name));
    open_.push_back(spans_.size() - 1);
    spans_.back().start_ns = now_ns();
  }
  // Closes the innermost open span (spans nest within one thread).
  void close(std::uint64_t items = 0) {
    Span& s = spans_[open_.back()];
    s.end_ns = now_ns();
    s.items = items;
    open_.pop_back();
  }
  // Records a finished span timed by the caller (calls whose span is only
  // wanted after the fact, such as non-empty polls).
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t items) {
    Span s = make(name);
    s.start_ns = since_origin(start);
    s.end_ns = since_origin(end);
    s.items = items;
    spans_.push_back(s);
  }
  // Spans with no open parent in this log hang under `parent` (a span of
  // the thread that started this one).
  void set_root_parent(std::uint32_t parent) { parent_ = parent; }

  [[nodiscard]] const std::deque<Span>& spans() const { return spans_; }

 private:
  Span make(const char* name) const {
    Span s;
    s.name = name;
    s.id = ids_.fetch_add(1, std::memory_order_relaxed) + 1;
    s.parent = current();
    return s;
  }
  [[nodiscard]] std::int64_t since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  std::atomic<std::uint32_t>& ids_;
  Clock::time_point origin_;
  std::deque<Span> spans_;  // grows without moving recorded spans
  std::vector<std::size_t> open_;  // indices of the open spans, innermost last
  std::uint32_t parent_ = 0;
};

// Total duration and item count of every span with one name.
struct SpanSum {
  std::uint64_t items = 0;
  double total_ns = 0.0;

  [[nodiscard]] double ns_per_item() const {
    return items > 0 ? total_ns / static_cast<double>(items) : 0.0;
  }
};

class Tracer {
 public:
  explicit Tracer(std::string run_id)
      : run_id_(std::move(run_id)), origin_(Clock::now()) {}

  // A fresh per-thread log; the tracer keeps it until write(). Call from
  // the main thread before the thread that will use the log starts.
  SpanLog& thread_log() {
    logs_.push_back(std::make_unique<SpanLog>(ids_, origin_));
    return *logs_.back();
  }

  [[nodiscard]] std::map<std::string, SpanSum> summarize() const;
  [[nodiscard]] std::size_t span_count() const;
  // Writes every span as one JSON object per line; returns false on an I/O
  // error.
  bool write(const std::string& path) const;

 private:
  std::string run_id_;
  Clock::time_point origin_;
  std::atomic<std::uint32_t> ids_{0};
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// RAII span on an optional log (null = untraced, no cost beyond a branch).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) log_->open(name);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(items_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(std::uint64_t n) { items_ = n; }

 private:
  SpanLog* log_;
  std::uint64_t items_ = 0;
};

}  // namespace servebench
