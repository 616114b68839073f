// The live part of a run: set up a serve::Service from the workload's tree,
// drive it through its public API with one producer thread (and, where the
// workload has one, one editor thread), time the measured window, stop it,
// and check its books (README.md "Correctness gate").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "workload.h"

namespace servebench {

struct LiveOptions {
  double seconds = 10.0;  // measured window (split in two when traced)
  int setups = 1;
  Tracer* tracer = nullptr;  // non-null: every other 0.5 s slice traced
};

struct LiveResult {
  // One entry per setup; the first setup is the one that serves traffic.
  std::vector<double> parse_s, service_s, start_s;
  double setup_s = 0.0;  // median of parse + service + start

  double mpps = 0.0;            // untraced window (slices)
  double cpu_us_per_pkt = 0.0;  // untraced window (slices)
  double traced_mpps = 0.0;     // traced slices (tracer only)
  double rss_mb = 0.0;

  std::uint64_t submitted = 0;
  std::uint64_t submit_failed = 0;
  std::uint64_t edits_applied = 0;
  std::uint64_t edits_failed = 0;
  std::uint64_t ops_failed = 0;  // ring + scheduler + edit drops, bad edits

  std::vector<double> edit_us;       // apply_edit_text, measured window
  std::vector<double> parse_us;      // parse_edits, traced window
  std::vector<double> gate_wait_us;  // apply - parse, traced window
  // (run_edit_probe appends its samples to these three.)
  std::vector<double> tick_ms;       // TelemetryPlane::tick, traced window
  double late_p99_us = -1.0;         // open loop only
  double late_p999_us = -1.0;
  std::uint64_t late_samples = 0;

  std::vector<std::string> faults;   // correctness-gate failures
};

// `tree` is the workload's tree_text(), generated once by the caller.
LiveResult run_live(const WorkloadSpec& w, const std::string& tree,
                    std::uint64_t seed, const LiveOptions& opt);

// For a workload without an editor thread (traced runs only): applies
// `batches` EditGen batches, back to back with the editor's pause, to an idle
// service built from edit_probe_spec(w), after the live service has gone.
// Appends to r's edit samples and edit counts; its books join r.faults.
void run_edit_probe(const WorkloadSpec& w, std::uint64_t seed,
                    std::size_t batches, SpanLog* log, LiveResult& r);

// Quantile q of `v` (nearest rank); 0 for an empty vector.
double quantile(std::vector<double> v, double q);

}  // namespace servebench
