// The benchmark's workloads and their seeded inputs (README.md
// "Workloads"). The service receives only what these generators produce:
// the hierarchy text, the packet stream and the edit batches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.h"
#include "serve/service.h"

namespace servebench {

enum class Loop {
  kClosed,  // keep `in_flight` packets submitted but not yet delivered
  kOpen,    // offer `offered_load` x link rate on a fixed schedule
};

struct WorkloadSpec {
  std::string name;
  std::string scheduler;  // runner::build_scheduler key of the service
  std::string reference;  // independent implementation for the replay gate
  std::uint32_t fanout = 0;  // 0 = flat tree; else classes per level
  std::uint32_t depth = 1;   // node servers a packet walks, root included
  std::uint32_t sessions = 0;
  double link_bps = 1e9;
  std::size_t shards = 1;
  bool paced = false;
  hfq::serve::TelemetrySpec::Level telemetry =
      hfq::serve::TelemetrySpec::Level::kOff;
  Loop loop = Loop::kClosed;
  std::size_t in_flight = 0;    // closed loop window (packets)
  double offered_load = 0.0;    // open loop: share of the link rate
  std::vector<std::uint32_t> sizes;  // packet sizes, drawn uniformly
  std::size_t ring_capacity = 1 << 16;
  std::size_t ingest_burst = 256;
  std::size_t service_burst = 256;
  bool editor = false;          // a second load thread applying rate swaps
  double warmup_s = 1.0;        // served before the measured window
  int setups = 1;               // setups per run; setup_s is their median
  std::size_t replay_packets = 0;  // input prefix the timed replays run
  std::size_t replay_window = 0;   // in-flight window of the replays
  std::size_t gate_packets = 0;    // input prefix of the replay gate
};

// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

// Session i is leaf "s<i>" bound to flow i.
std::string session_name(std::uint32_t i);
// Rate of session i when the service starts.
double initial_rate(const WorkloadSpec& w, std::uint32_t i);

// The hierarchy in the tree-parser grammar (core/tree_parser.h).
std::string tree_text(const WorkloadSpec& w);
// The same sessions, every one directly under the root (depth 1).
std::string flat_tree_text(const WorkloadSpec& w);

// The H-WF²Q+ tree sched.level_ns is measured on: a hierarchical workload
// itself; a flat workload's sessions grouped √N per class, two levels deep
// (its session count must be a square).
WorkloadSpec level_spec(const WorkloadSpec& w);

// The service a workload without an editor thread measures edit.* on: the
// same sessions and shards, flat, with the alternating rates EditGen swaps,
// under "wf2q+", which takes live edits.
WorkloadSpec edit_probe_spec(const WorkloadSpec& w);

// The seeded packet stream: packet k (k = 1, 2, ...) has id k and a flow and
// size drawn from the seed alone.
class InputGen {
 public:
  InputGen(const WorkloadSpec& w, std::uint64_t seed);
  hfq::net::Packet next();

 private:
  std::uint64_t state_;
  std::uint64_t next_id_ = 1;
  std::uint32_t sessions_;
  std::vector<std::uint32_t> sizes_;
};

// Seeded two-line rate-swap edit batches. Sessions start alternating between
// a high and a low rate (initial_rate); each batch swaps the rates of one
// high and one low session, so the sum of rates — and every guarantee the
// bound monitor checks — stays valid.
class EditGen {
 public:
  EditGen(const WorkloadSpec& w, std::uint64_t seed);
  std::string next();

 private:
  std::uint64_t state_;
  double hi_ = 0.0;
  double lo_ = 0.0;
  std::vector<std::uint32_t> hi_set_;
  std::vector<std::uint32_t> lo_set_;
};

// Digest of everything the generators produce for (workload, seed): the
// tree text (the workload's tree_text()), a prefix of the packet stream and
// of the edit batches.
std::uint64_t input_digest(const WorkloadSpec& w, const std::string& tree,
                           std::uint64_t seed);

}  // namespace servebench
