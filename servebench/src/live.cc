#include "live.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "core/tree_parser.h"
#include "serve/edits.h"
#include "serve/service.h"

namespace servebench {

using hfq::serve::Service;
using hfq::serve::ServiceConfig;

namespace {

constexpr std::size_t kSubmitBatch = 256;  // max packets per submit batch
// The open loop wakes this often and submits everything due by then. A
// producer spinning for each 1 µs-spaced packet would need a fourth busy
// vCPU beside the two spinning paced shards; on four vCPUs any other load
// then starves it for milliseconds (measured p99 lateness 10-30 ms).
constexpr auto kOpenTick = std::chrono::microseconds(50);
constexpr double kTickPeriodS = 0.1;       // traced TelemetryPlane::tick
constexpr double kTraceSliceS = 0.5;       // traced run: slice alternation
constexpr auto kEditPause = std::chrono::microseconds(100);
constexpr auto kWindowFullSleep = std::chrono::microseconds(100);
// Bound-monitor jitter allowance (TelemetrySpec::slack_s, default 50 ms).
// Paced shards measure wall-clock delay. Hypervisor steal bursts stall them
// for tens of milliseconds, and the backlog then takes as long again to
// drain. The allowance keeps the zero-breach gate about the scheduler, not
// the host; a starved or mis-weighted flow still breaches, because its lag
// grows without bound.
constexpr double kMonitorSlackS = 0.25;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// kB value of one /proc/self/status field (VmRSS, VmHWM); 0 if missing.
std::uint64_t status_kb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size() + 1, field + ":") == 0) {
      std::istringstream is(line.substr(field.size() + 1));
      std::uint64_t kb = 0;
      is >> kb;
      return kb;
    }
  }
  return 0;
}

// Resets VmHWM to the current RSS (Linux clear_refs "5"); when the kernel
// refuses, VmHWM keeps the process-lifetime peak, which at this point is
// the benchmark's own input generation.
void reset_peak_rss() {
  std::ofstream os("/proc/self/clear_refs");
  if (os) os << "5";
}

ServiceConfig service_config(const WorkloadSpec& w) {
  ServiceConfig cfg;
  cfg.num_shards = w.shards;
  cfg.scheduler = w.scheduler;
  cfg.ring_capacity = w.ring_capacity;
  cfg.ingest_burst = w.ingest_burst;
  cfg.service_burst = w.service_burst;
  cfg.paced = w.paced;
  cfg.telemetry.level = w.telemetry;
  cfg.telemetry.slack_s = kMonitorSlackS;
  // Lmax for the analytic bounds: the largest packet the workload sends.
  cfg.telemetry.lmax_bits =
      8.0 * *std::max_element(w.sizes.begin(), w.sizes.end());
  return cfg;
}

struct Setup {
  std::unique_ptr<hfq::core::Hierarchy> tree;
  std::unique_ptr<Service> svc;
};

Setup set_up(const WorkloadSpec& w, const std::string& text, LiveResult& r,
             SpanLog* log) {
  Setup s;
  ScopedSpan all(log, "setup");
  Clock::time_point t = Clock::now();
  {
    ScopedSpan sp(log, "setup.parse_hierarchy");
    s.tree = std::make_unique<hfq::core::Hierarchy>(
        hfq::core::parse_hierarchy(text));
  }
  r.parse_s.push_back(seconds_since(t));
  t = Clock::now();
  {
    ScopedSpan sp(log, "setup.service");
    s.svc = std::make_unique<Service>(*s.tree, service_config(w));
  }
  r.service_s.push_back(seconds_since(t));
  t = Clock::now();
  {
    ScopedSpan sp(log, "setup.start");
    s.svc->start();
  }
  r.start_s.push_back(seconds_since(t));
  return s;
}

struct EditTiming {
  bool ok = true;
  double apply_us = 0.0;  // Service::apply_edit_text
  double parse_us = 0.0;  // serve::parse_edits, timed only when traced
};

// Applies one edit batch. `log` non-null: parse_edits is first timed on its
// own and both calls get a span.
EditTiming timed_edit(Service& svc, const std::string& batch, SpanLog* log) {
  EditTiming e;
  if (log != nullptr) {
    ScopedSpan sp(log, "edit.parse");
    const Clock::time_point t = Clock::now();
    sp.set_items(hfq::serve::parse_edits(batch).size());
    e.parse_us = 1e6 * seconds_since(t);
  }
  const Clock::time_point t = Clock::now();
  {
    ScopedSpan sp(log, "serve.apply_edit");
    try {
      svc.apply_edit_text(batch);
    } catch (const std::exception&) {
      e.ok = false;
    }
  }
  e.apply_us = 1e6 * seconds_since(t);
  return e;
}

// Phases the producer announces to the editor thread.
enum Phase : int { kWarmup = 0, kUntraced = 1, kTraced = 2, kDone = 3 };

// Submit-time lateness of the open-loop generator, 0.25 µs buckets.
class LateHist {
 public:
  void add(double late_s) {
    const double b = late_s / kBucketS;
    const std::size_t i =
        b >= static_cast<double>(kBuckets - 1) ? kBuckets - 1
                                                : static_cast<std::size_t>(b);
    ++counts_[i];
    ++n_;
  }
  [[nodiscard]] std::uint64_t samples() const { return n_; }
  [[nodiscard]] double quantile_us(double q) const {
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank && seen > 0) {
        return 1e6 * kBucketS * static_cast<double>(i + 1);
      }
    }
    return 0.0;
  }

 private:
  static constexpr double kBucketS = 0.25e-6;
  static constexpr std::size_t kBuckets = 400'000;  // up to 100 ms
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t n_ = 0;
};

// The single producer thread (the caller's): submits the seeded stream.
class Producer {
 public:
  // `late` receives the open loop's lateness samples.
  Producer(Service& svc, const WorkloadSpec& w, std::uint64_t seed,
           LateHist& late)
      : svc_(svc), w_(w), gen_(w, seed), late_(late) {
    batch_.reserve(kSubmitBatch);
    if (w.loop == Loop::kOpen) {
      double mean_bits = 0.0;
      for (std::uint32_t s : w.sizes) mean_bits += 8.0 * s;
      mean_bits /= static_cast<double>(w.sizes.size());
      period_s_ = mean_bits / (w.offered_load * w.link_bps);
      t_base_ = svc.clock_s();
    }
  }

  // Produces until the service clock reaches `until_s`. `log` non-null:
  // one span per submit batch. `record_late`: open-loop lateness counts.
  // `on_idle` runs whenever the producer has nothing to submit.
  template <class Idle>
  void run(double until_s, SpanLog* log, bool record_late, Idle on_idle) {
    if (w_.loop == Loop::kClosed) {
      run_closed(until_s, log, on_idle);
    } else {
      run_open(until_s, log, record_late);
    }
  }

  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  void submit_batch(SpanLog* log) {
    ScopedSpan sp(log, "serve.submit");
    for (const hfq::net::Packet& p : batch_) {
      if (!svc_.submit(p)) ++failed_;
    }
    submitted_ += batch_.size();
    sp.set_items(batch_.size());
  }

  template <class Idle>
  void run_closed(double until_s, SpanLog* log, Idle on_idle) {
    while (svc_.clock_s() < until_s) {
      if (submitted_ + kSubmitBatch - delivered_ > w_.in_flight) {
        delivered_ = svc_.totals().delivered;
        if (submitted_ + kSubmitBatch - delivered_ > w_.in_flight) {
          on_idle();
          std::this_thread::sleep_for(kWindowFullSleep);
        }
        continue;
      }
      batch_.clear();
      for (std::size_t i = 0; i < kSubmitBatch; ++i) {
        batch_.push_back(gen_.next());
      }
      submit_batch(log);
    }
  }

  void run_open(double until_s, SpanLog* log, bool record_late) {
    for (;;) {
      const double now = svc_.clock_s();
      if (now >= until_s) return;
      for (;;) {
        batch_.clear();
        while (batch_.size() < kSubmitBatch) {
          const double due = t_base_ + static_cast<double>(k_) * period_s_;
          if (due > now) break;
          hfq::net::Packet p = gen_.next();
          p.created = due;  // stamped with its due time
          batch_.push_back(p);
          if (record_late) late_.add(now - due);
          ++k_;
        }
        if (batch_.empty()) break;
        submit_batch(log);
      }
      std::this_thread::sleep_for(kOpenTick);
    }
  }

  Service& svc_;
  const WorkloadSpec& w_;
  InputGen gen_;
  std::vector<hfq::net::Packet> batch_;
  std::uint64_t submitted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t delivered_ = 0;  // last totals() reading (closed loop)
  double period_s_ = 0.0;        // open loop
  double t_base_ = 0.0;
  std::uint64_t k_ = 0;
  LateHist& late_;
};

// Times TelemetryPlane::tick() every kTickPeriodS while `traced`.
class TickProbe {
 public:
  TickProbe(Service& svc, SpanLog* log) : plane_(svc.plane()), log_(log) {}
  void maybe_tick(bool traced, std::vector<double>& out) {
    if (!traced || plane_ == nullptr || log_ == nullptr) return;
    const Clock::time_point now = Clock::now();
    if (now < next_) return;
    next_ = now + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(kTickPeriodS));
    ScopedSpan sp(log_, "tele.tick");
    plane_->tick();
    out.push_back(1e3 * seconds_since(now));
  }

 private:
  hfq::telemetry::TelemetryPlane* plane_;
  SpanLog* log_;
  Clock::time_point next_{};
};

struct Window {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t delivered = 0;
};

Window window_start(Service& svc) {
  return Window{svc.clock_s(), process_cpu_s(), svc.totals().delivered};
}

void window_end(Service& svc, Window& w) {
  const Window e = window_start(svc);
  w.wall_s = e.wall_s - w.wall_s;
  w.cpu_s = e.cpu_s - w.cpu_s;
  w.delivered = e.delivered - w.delivered;
}

// `submitted`: packets the benchmark submitted; `rejected`: those submit()
// refused.
void check_books(const WorkloadSpec& w, Service& svc, std::uint64_t submitted,
                 std::uint64_t rejected, LiveResult& r) {
  const Service::Totals t = svc.totals();
  const std::uint64_t accounted = t.delivered + t.backlog + t.sched_drops +
                                  t.edit_drops + t.ring_drops;
  auto fault = [&r](const std::string& what) { r.faults.push_back(what); };
  if (accounted != submitted) {
    fault("conservation: offered " + std::to_string(submitted) +
          " != delivered+backlog+drops " + std::to_string(accounted));
  }
  if (t.ring_drops != rejected) {
    fault("ring drops " + std::to_string(t.ring_drops) +
          " != rejected submits " + std::to_string(rejected));
  }
  if (t.faulted_shards > 0) {
    fault(std::to_string(t.faulted_shards) + " faulted shard(s)");
  }
  if (t.splice_failures > 0) {
    fault(std::to_string(t.splice_failures) + " splice failure(s)");
  }
  if (t.audit_violations > 0) {
    fault(std::to_string(t.audit_violations) + " audit violation(s)");
  }
  r.ops_failed += t.ring_drops + t.sched_drops + t.edit_drops;
  // Guarantees are checked on the paced workload only: unpaced shards serve
  // in virtual link time (README.md "Open questions").
  if (w.paced && w.telemetry == hfq::serve::TelemetrySpec::Level::kMonitor) {
    const hfq::telemetry::TelemetryPlane* plane = svc.plane();
    const std::uint64_t breaches =
        plane != nullptr ? plane->breaches_total() : 0;
    if (breaches > 0) {
      // Which guarantee broke, and by how much (the log keeps the first
      // breaches only).
      std::size_t delay = 0;
      double worst = 0.0, budget = 0.0;
      for (const hfq::telemetry::Breach& b : plane->breach_log()) {
        if (b.kind == hfq::telemetry::Breach::Kind::kDelay) ++delay;
        if (b.measured_s - b.budget_s > worst - budget) {
          worst = b.measured_s;
          budget = b.budget_s;
        }
      }
      fault(std::to_string(breaches) + " bound-monitor breach(es), " +
            std::to_string(delay) + " of the logged ones delay breaches; " +
            "worst " + std::to_string(1e3 * worst) + " ms against " +
            std::to_string(1e3 * budget) + " ms");
    }
  }
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

LiveResult run_live(const WorkloadSpec& w, const std::string& text,
                    std::uint64_t seed, const LiveOptions& opt) {
  LiveResult r;
  SpanLog* main_log = opt.tracer ? &opt.tracer->thread_log() : nullptr;
  SpanLog* edit_log =
      opt.tracer && w.editor ? &opt.tracer->thread_log() : nullptr;

  // Memory the service adds beyond the benchmark's own buffers (the tree
  // text, the lateness histogram).
  LateHist late;
  const std::uint64_t base_kb = status_kb("VmRSS");
  reset_peak_rss();

  Setup s = set_up(w, text, r, main_log);
  Service& svc = *s.svc;
  // Release/acquire: the editor reads the phase to decide which samples
  // belong to which window; the producer's window bookkeeping happens-before
  // the editor sees the new phase.
  std::atomic<int> phase{kWarmup};
  std::exception_ptr editor_error;
  // Declared after the service it uses: its destructor requests stop and
  // joins before the service goes away, on every path out of this function.
  std::jthread editor;
  if (w.editor) {
    editor = std::jthread([&](std::stop_token stop) {
      try {
        EditGen edits(w, seed);
        TickProbe ticks(svc, edit_log);
        while (!stop.stop_requested()) {
          const std::string batch = edits.next();
          const int ph = phase.load(std::memory_order_acquire);
          const bool traced = ph == kTraced && edit_log != nullptr;
          const EditTiming e =
              timed_edit(svc, batch, traced ? edit_log : nullptr);
          ++(e.ok ? r.edits_applied : r.edits_failed);
          if (ph == kUntraced || ph == kTraced) r.edit_us.push_back(e.apply_us);
          if (traced) {
            r.parse_us.push_back(e.parse_us);
            r.gate_wait_us.push_back(e.apply_us - e.parse_us);
          }
          ticks.maybe_tick(traced, r.tick_ms);
          std::this_thread::sleep_for(kEditPause);
        }
      } catch (...) {
        editor_error = std::current_exception();
      }
    });
  }

  Producer prod(svc, w, seed, late);
  TickProbe ticks(svc, main_log);
  const bool producer_ticks = !w.editor;
  double t = svc.clock_s() + w.warmup_s;
  prod.run(t, nullptr, false, [] {});

  // Untraced: one window. Traced: the window alternates untraced and traced
  // slices, so the overhead comparison is not confounded by slow drift in
  // the service's (or the machine's) speed.
  const double slice_s = opt.tracer ? kTraceSliceS : opt.seconds;
  const double end = t + opt.seconds;
  Window sums[2];  // [0] untraced, [1] traced
  bool traced = false;
  auto idle = [&] { ticks.maybe_tick(traced && producer_ticks, r.tick_ms); };
  for (; t < end; traced = opt.tracer != nullptr && !traced) {
    phase.store(traced ? kTraced : kUntraced, std::memory_order_release);
    Window win = window_start(svc);
    t = std::min(t + slice_s, end);
    prod.run(t, traced ? main_log : nullptr, true, idle);
    window_end(svc, win);
    Window& sum = sums[traced ? 1 : 0];
    sum.wall_s += win.wall_s;
    sum.cpu_s += win.cpu_s;
    sum.delivered += win.delivered;
  }
  if (sums[0].delivered > 0) {
    r.mpps = static_cast<double>(sums[0].delivered) / sums[0].wall_s / 1e6;
    r.cpu_us_per_pkt =
        1e6 * sums[0].cpu_s / static_cast<double>(sums[0].delivered);
  }
  if (sums[1].delivered > 0) {
    r.traced_mpps =
        static_cast<double>(sums[1].delivered) / sums[1].wall_s / 1e6;
  }
  phase.store(kDone, std::memory_order_release);

  if (editor.joinable()) {
    editor.request_stop();
    editor.join();
  }
  if (editor_error) std::rethrow_exception(editor_error);
  {
    ScopedSpan sp(main_log, "serve.stop");
    svc.stop();
  }
  r.submitted = prod.submitted();
  r.submit_failed = prod.failed();
  if (w.loop == Loop::kOpen) {
    r.late_samples = late.samples();
    r.late_p99_us = late.quantile_us(0.99);
    r.late_p999_us = late.quantile_us(0.999);
  }
  check_books(w, svc, prod.submitted(), prod.failed(), r);
  r.ops_failed += r.edits_failed;
  const std::uint64_t peak_kb = status_kb("VmHWM");
  r.rss_mb = static_cast<double>(peak_kb > base_kb ? peak_kb - base_kb : 0) /
             1024.0;
  s.svc.reset();  // the service before the tree it was built from
  s.tree.reset();

  // Further setups, timed only, for a steadier setup_s.
  for (int i = 1; i < opt.setups; ++i) {
    Setup extra = set_up(w, text, r, main_log);
    extra.svc->stop();
  }
  std::vector<double> totals;
  for (std::size_t i = 0; i < r.parse_s.size(); ++i) {
    totals.push_back(r.parse_s[i] + r.service_s[i] + r.start_s[i]);
  }
  r.setup_s = quantile(totals, 0.5);
  return r;
}

void run_edit_probe(const WorkloadSpec& w, std::uint64_t seed,
                    std::size_t batches, SpanLog* log, LiveResult& r) {
  ScopedSpan all(log, "edit_probe");
  const WorkloadSpec e = edit_probe_spec(w);
  LiveResult setup_times;  // not the workload's setup
  Setup s = set_up(e, flat_tree_text(e), setup_times, log);
  EditGen edits(e, seed);
  for (std::size_t i = 0; i < batches; ++i) {
    const EditTiming t = timed_edit(*s.svc, edits.next(), log);
    if (t.ok) {
      ++r.edits_applied;
    } else {
      ++r.edits_failed;
      ++r.ops_failed;
    }
    r.edit_us.push_back(t.apply_us);
    r.parse_us.push_back(t.parse_us);
    r.gate_wait_us.push_back(t.apply_us - t.parse_us);
    std::this_thread::sleep_for(kEditPause);
  }
  {
    ScopedSpan sp(log, "serve.stop");
    s.svc->stop();
  }
  check_books(e, *s.svc, 0, 0, r);
  s.svc.reset();  // the service before the tree it was built from
}

}  // namespace servebench
