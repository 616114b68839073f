// Standalone replays of a workload's seeded input through single layers of
// the service, outside any Service (README.md "Per-layer metrics"):
//
//   replay_scheduler — a runner::build_scheduler instance driven through
//                      enqueue_burst / dequeue_burst with the shard's bursts
//                      and the workload's in-flight window, single-threaded,
//                      in the shard's unpaced virtual link time;
//   replay_ring      — a standalone serve::MpscRing, one pusher thread and
//                      one popper thread, the producer's submit bursts;
//   replay_hooks     — a standalone telemetry::ShardTelemetry, on_arrival +
//                      on_delivery per packet, then TelemetryPlane::tick()
//                      on a counters-level plane over it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "spans.h"
#include "workload.h"

namespace servebench {

struct SchedReplay {
  // Steady phase: while the second half of the input prefix is fed.
  double enq_ns = 0.0;        // per packet enqueued
  double deq_ns = 0.0;        // per packet dequeued
  double deq_fill = 0.0;      // packets dequeued / (calls x service_burst)
  double backlog_pkts = 0.0;  // mean backlog seen by a dequeue_burst call
  std::uint64_t accepted = 0;
  std::vector<std::uint64_t> departures;  // packet ids, departure order
};

// Replays the first `packets` packets of the input with at most `window`
// of them queued. `log` non-null: one span per enqueue_burst /
// dequeue_burst call of the steady phase.
SchedReplay replay_scheduler(const std::string& key,
                             const hfq::core::Hierarchy& tree,
                             const WorkloadSpec& w, std::uint64_t seed,
                             std::size_t packets, std::size_t window,
                             SpanLog* log);

struct RingReplay {
  double pop_ns = 0.0;      // per packet, time inside non-empty pop_burst
  double full_share = 0.0;  // rejected try_push / all try_push calls
  bool fifo = true;         // popped in push order, nothing lost
};

// `log`: the calling (popper) thread's log; `push_log`: a log for the
// pusher thread. Both null or both non-null.
RingReplay replay_ring(const WorkloadSpec& w, std::uint64_t seed,
                       SpanLog* log, SpanLog* push_log);

struct HookReplay {
  double hook_ns = 0.0;  // per packet, on_arrival + on_delivery
  double tick_ms = 0.0;  // median TelemetryPlane::tick()
};

HookReplay replay_hooks(const WorkloadSpec& w, std::uint64_t seed,
                        SpanLog* log);

}  // namespace servebench
