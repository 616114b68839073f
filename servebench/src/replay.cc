#include "replay.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <thread>

#include "net/scheduler.h"
#include "runner/simulate.h"
#include "serve/mpsc_ring.h"
#include "telemetry/plane.h"
#include "telemetry/shard_telemetry.h"

namespace servebench {

namespace {

constexpr std::size_t kPushBurst = 256;  // the producer's submit batch
// Standalone plane: the median of kTickGroups groups of kTicksPerGroup.
constexpr int kTickGroups = 101;
constexpr int kTicksPerGroup = 64;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

SchedReplay replay_scheduler(const std::string& key,
                             const hfq::core::Hierarchy& tree,
                             const WorkloadSpec& w, std::uint64_t seed,
                             std::size_t packets, std::size_t window,
                             SpanLog* log) {
  SchedReplay r;
  std::unique_ptr<hfq::net::Scheduler> sched =
      hfq::runner::build_scheduler(key, tree);
  const double rate = tree.link_rate();
  const double inf = std::numeric_limits<double>::infinity();
  InputGen gen(w, seed);
  std::vector<hfq::net::Packet> in;
  std::vector<hfq::net::Packet> out;
  in.reserve(w.ingest_burst);
  out.reserve(w.service_burst);
  r.departures.reserve(packets);

  double enq_ns = 0.0, deq_ns = 0.0, backlog_sum = 0.0;
  std::uint64_t enq_pkts = 0, deq_pkts = 0, deq_calls = 0;
  double link_free_at = 0.0;  // the shard's unpaced virtual link cursor
  std::size_t fed = 0;

  while (fed < packets || sched->backlog_packets() > 0) {
    const bool feeding = fed < packets;
    const std::size_t backlog = sched->backlog_packets();
    // Steady phase: the second half of the input (the first half fills the
    // window and lets the queues settle).
    const bool timed = feeding && 2 * fed >= packets;
    if (feeding && backlog < window) {
      const std::size_t k =
          std::min({w.ingest_burst, window - backlog, packets - fed});
      in.clear();
      for (std::size_t i = 0; i < k; ++i) in.push_back(gen.next());
      fed += k;
      ScopedSpan sp(timed ? log : nullptr, "sched.enqueue_burst");
      const Clock::time_point a = Clock::now();
      r.accepted += sched->enqueue_burst(in, link_free_at);
      const Clock::time_point b = Clock::now();
      sp.set_items(k);
      if (timed) {
        enq_ns += ns_between(a, b);
        enq_pkts += k;
      }
    }
    if (sched->backlog_packets() == 0) continue;
    const std::size_t depth = sched->backlog_packets();
    out.clear();
    ScopedSpan sp(timed ? log : nullptr, "sched.dequeue_burst");
    const Clock::time_point a = Clock::now();
    const std::size_t n = sched->dequeue_burst(out, w.service_burst,
                                               link_free_at, rate, inf);
    const Clock::time_point b = Clock::now();
    sp.set_items(n);
    for (std::size_t i = 0; i < n; ++i) {
      link_free_at += out[i].size_bits() / rate;
      r.departures.push_back(out[i].id);
    }
    if (timed) {
      deq_ns += ns_between(a, b);
      deq_pkts += n;
      ++deq_calls;
      backlog_sum += static_cast<double>(depth);
    }
  }
  if (enq_pkts > 0) r.enq_ns = enq_ns / static_cast<double>(enq_pkts);
  if (deq_pkts > 0) r.deq_ns = deq_ns / static_cast<double>(deq_pkts);
  if (deq_calls > 0) {
    r.deq_fill = static_cast<double>(deq_pkts) /
                 (static_cast<double>(deq_calls) *
                  static_cast<double>(w.service_burst));
    r.backlog_pkts = backlog_sum / static_cast<double>(deq_calls);
  }
  return r;
}

RingReplay replay_ring(const WorkloadSpec& w, std::uint64_t seed,
                       SpanLog* log, SpanLog* push_log) {
  RingReplay r;
  if (push_log != nullptr) push_log->set_root_parent(log->current());
  hfq::serve::MpscRing ring(w.ring_capacity);
  const std::size_t total = w.replay_packets;
  std::uint64_t rejected = 0;  // written by the pusher, read after join()
  std::jthread pusher([&] {
    InputGen gen(w, seed);
    std::vector<hfq::net::Packet> batch;
    batch.reserve(kPushBurst);
    std::uint64_t full = 0;
    for (std::size_t done = 0; done < total;) {
      batch.clear();
      const std::size_t k = std::min(kPushBurst, total - done);
      for (std::size_t i = 0; i < k; ++i) batch.push_back(gen.next());
      ScopedSpan sp(push_log, "ring.push");
      for (const hfq::net::Packet& p : batch) {
        while (!ring.try_push(p)) ++full;  // full: retry, as a producer would
      }
      sp.set_items(k);
      done += k;
    }
    rejected = full;
  });

  std::vector<hfq::net::Packet> buf;
  buf.reserve(w.ingest_burst);
  double pop_ns = 0.0;
  std::uint64_t expect = 1;
  for (std::size_t popped = 0; popped < total;) {
    buf.clear();
    const Clock::time_point a = Clock::now();
    const std::size_t n = ring.pop_burst(buf, w.ingest_burst);
    const Clock::time_point b = Clock::now();
    if (n == 0) continue;
    pop_ns += ns_between(a, b);
    if (log != nullptr) log->record("ring.pop_burst", a, b, n);
    for (std::size_t i = 0; i < n; ++i) {
      if (buf[i].id != expect++) r.fifo = false;
    }
    popped += n;
  }
  pusher.join();
  const auto full = static_cast<double>(rejected);
  r.pop_ns = pop_ns / static_cast<double>(total);
  r.full_share = full / (full + static_cast<double>(total));
  return r;
}

HookReplay replay_hooks(const WorkloadSpec& w, std::uint64_t seed,
                        SpanLog* log) {
  hfq::telemetry::ShardTelemetryConfig cfg;
  // As serve::Service sizes them: every flow plus the live-add headroom.
  cfg.flow_slots = std::min<std::size_t>(
      w.sessions + hfq::serve::TelemetrySpec{}.flow_headroom,
      hfq::serve::TelemetrySpec::kMaxFlowSlots);
  cfg.delay_checks =
      w.paced && w.telemetry == hfq::serve::TelemetrySpec::Level::kMonitor;
  hfq::telemetry::ShardTelemetry tel(cfg);
  InputGen gen(w, seed);
  std::vector<hfq::net::Packet> batch;
  batch.reserve(kPushBurst);
  double ns = 0.0;
  std::uint64_t k = 0;
  double at = 0.0;
  for (std::size_t done = 0; done < w.replay_packets;) {
    batch.clear();
    const std::size_t n = std::min(kPushBurst, w.replay_packets - done);
    for (std::size_t i = 0; i < n; ++i) batch.push_back(gen.next());
    ScopedSpan sp(log, "tele.hooks");
    const Clock::time_point a = Clock::now();
    for (const hfq::net::Packet& p : batch) {
      tel.on_arrival(p.flow, p.size_bytes);
    }
    for (const hfq::net::Packet& p : batch) {
      at += p.size_bits() / w.link_bps;
      tel.on_delivery(p.flow, p.size_bytes, 1e-5, at, (++k & 7u) == 0);
    }
    ns += ns_between(a, Clock::now());
    sp.set_items(n);
    done += n;
  }
  HookReplay r;
  r.hook_ns = ns / static_cast<double>(w.replay_packets);

  // A plane as serve::Service builds it at the counters level: no bound
  // monitor, no exposition file.
  hfq::telemetry::TelemetryPlane plane(
      hfq::telemetry::PlaneConfig{}, {&tel}, nullptr,
      [] { return std::vector<hfq::telemetry::ShardStatsView>(1); },
      [&at] { return at; }, [](std::uint32_t) {});
  // A tick here takes about as long as a clock read: time them in groups.
  std::vector<double> tick_ms;
  for (int i = 0; i < kTickGroups; ++i) {
    ScopedSpan sp(log, "tele.tick");
    const Clock::time_point a = Clock::now();
    for (int k = 0; k < kTicksPerGroup; ++k) plane.tick();
    tick_ms.push_back(1e-6 * ns_between(a, Clock::now()) / kTicksPerGroup);
    sp.set_items(kTicksPerGroup);
  }
  std::nth_element(tick_ms.begin(), tick_ms.begin() + kTickGroups / 2,
                   tick_ms.end());
  r.tick_ms = tick_ms[kTickGroups / 2];
  return r;
}

}  // namespace servebench
