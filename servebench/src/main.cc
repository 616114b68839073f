// servebench — the serve benchmark's binary (README.md).
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <file>]
//   servebench --workload <name> --seed <n> --digest
//   servebench --fingerprint
//
// Runs one workload against serve::Service, checks the outputs, and prints
// as its last stdout line one JSON object: correct, attempted, failed and
// metrics (end-to-end metrics untraced, per-layer metrics traced). Exit
// codes: 0 correct, 1 a correctness check failed, 2 usage or build guard,
// 3 the run is invalid (open-loop generator fell behind, too few samples)
// and no numbers are reported.
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/tree_parser.h"
#include "live.h"
#include "replay.h"
#include "spans.h"
#include "workload.h"

namespace servebench {
namespace {

// Validity bound of the open-loop generator: its p99 submit lateness, set to
// the jitter the bound monitor tolerates by default (TelemetrySpec::slack_s).
// When the hypervisor steals a few seconds of CPU from a 10 s run, the p99
// reaches ~10 ms; a generator that keeps up stays near 0.1 ms.
constexpr double kLateBoundUs = 50'000.0;
// A p99 needs at least ten samples beyond it.
constexpr std::size_t kMinEditSamples = 1000;
// Edit batches the traced run applies to the edit probe on a workload
// without an editor thread (live.h run_edit_probe). At 1M sessions a batch
// takes ~8 ms, so the probe stays at the fewest samples a p99 allows.
constexpr std::size_t kProbeEdits = kMinEditSamples;

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE ""
#endif
#ifndef SERVEBENCH_ELIGIBLE
#define SERVEBENCH_ELIGIBLE ""
#endif

struct BuildInfo {
  std::string build_type = SERVEBENCH_BUILD_TYPE;
  std::string eligible = SERVEBENCH_ELIGIBLE;
  std::string compiler = __VERSION__;
#ifdef __OPTIMIZE__
  bool optimized = true;
#else
  bool optimized = false;
#endif
#ifdef NDEBUG
  bool ndebug = true;
#else
  bool ndebug = false;
#endif
#ifdef HFQ_AUDIT_ENABLED
  bool audit = true;
#else
  bool audit = false;
#endif
#ifdef HFQ_TRACE_ENABLED
  bool trace = true;
#else
  bool trace = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  bool sanitize = true;
#else
  bool sanitize = false;
#endif
#ifdef HFQ_ELIGIBLE_CALENDAR
  bool calendar_default = true;
#else
  bool calendar_default = false;
#endif

  // Empty when numbers from this build may be reported.
  [[nodiscard]] std::string refusal() const {
    if (build_type == "Debug" || build_type.empty()) {
      return "build type '" + build_type + "' is not an optimized build";
    }
    if (!optimized) return "compiled without optimization";
    if (!ndebug) return "compiled without NDEBUG (assertions on)";
    if (sanitize) return "sanitizer build";
    if (audit) return "HFQ_AUDIT build";
    if (trace) return "HFQ_TRACE build";
    return {};
  }

  [[nodiscard]] std::string json() const {
    auto b = [](bool v) { return v ? "true" : "false"; };
    std::ostringstream os;
    os << "{\"build_type\":\"" << build_type << "\",\"compiler\":\"gcc "
       << compiler << "\",\"optimized\":" << b(optimized)
       << ",\"ndebug\":" << b(ndebug) << ",\"HFQ_ELIGIBLE\":\"" << eligible
       << "\",\"calendar_default\":" << b(calendar_default)
       << ",\"HFQ_AUDIT\":" << b(audit) << ",\"HFQ_TRACE\":" << b(trace)
       << ",\"HFQ_SANITIZE\":" << b(sanitize) << "}";
    return os.str();
  }
};

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  bool digest = false;
  bool fingerprint = false;
};

int usage(const std::string& why) {
  std::cerr << "servebench: " << why
            << "\nusage: servebench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> [--trace-out <file>]\n"
               "       servebench --workload <name> --seed <n> --digest\n"
               "       servebench --fingerprint\nworkloads:";
  for (const std::string& n : workload_names()) std::cerr << ' ' << n;
  std::cerr << '\n';
  return 2;
}

bool parse_args(int argc, char** argv, Args& a, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--digest") {
      a.digest = true;
      continue;
    }
    if (k == "--fingerprint") {
      a.fingerprint = true;
      continue;
    }
    if (i + 1 >= argc) {
      err = "missing value for " + k;
      return false;
    }
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v);
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else {
        err = "unknown option " + k;
        return false;
      }
    } catch (const std::exception&) {
      err = "bad value '" + v + "' for " + k;
      return false;
    }
  }
  if (a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1)) {
    err = "--seconds must be positive and --trace 0 or 1";
    return false;
  }
  return true;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << metrics[i].name << "\": {\"value\": "
       << num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(const Args& a) {
  const WorkloadSpec* w = find_workload(a.workload);
  if (w == nullptr) return usage("unknown workload '" + a.workload + "'");
  const std::string tree_txt = tree_text(*w);
  const std::uint64_t digest = input_digest(*w, tree_txt, a.seed);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  if (a.digest) {
    std::cout << "{\"workload\": \"" << w->name << "\", \"seed\": " << a.seed
              << ", \"digest\": \"" << hex << "\"}" << std::endl;
    return 0;
  }
  const BuildInfo build;
  const std::string refusal = build.refusal();
  if (!refusal.empty()) {
    std::cerr << "servebench: refusing to report numbers: " << refusal << '\n';
    return 2;
  }
  std::cerr << "servebench: workload=" << w->name << " seed=" << a.seed
            << " input_digest=" << hex << " build=" << build.json() << '\n';

  std::unique_ptr<Tracer> tracer;
  if (a.trace == 1) {
    tracer = std::make_unique<Tracer>(w->name + "-" + std::to_string(a.seed) +
                                      "-" + std::to_string(::getpid()));
  }
  LiveOptions opt;
  opt.seconds = a.seconds;
  opt.setups = tracer ? 1 : w->setups;
  opt.tracer = tracer.get();
  LiveResult live = run_live(*w, tree_txt, a.seed, opt);

  // Replay gate: the service's scheduler against an independent in-repo
  // implementation, same input prefix, same call sequence.
  SpanLog* main_log = tracer ? &tracer->thread_log() : nullptr;
  const hfq::core::Hierarchy tree = hfq::core::parse_hierarchy(tree_txt);
  {
    ScopedSpan sp(main_log, "replay.gate");
    const SchedReplay got = replay_scheduler(
        w->scheduler, tree, *w, a.seed, w->gate_packets, w->replay_window,
        nullptr);
    const SchedReplay want = replay_scheduler(
        w->reference, tree, *w, a.seed, w->gate_packets, w->replay_window,
        nullptr);
    if (got.departures != want.departures) {
      live.faults.push_back("replay: " + w->scheduler +
                            " departure sequence differs from " +
                            w->reference);
    }
    if (got.departures.size() != w->gate_packets ||
        got.accepted != w->gate_packets) {
      live.faults.push_back("replay: " + w->scheduler + " lost packets");
    }
  }

  // Validity: an open loop that fell behind did not offer the load it
  // claims, and a p99 needs ten samples beyond it.
  if (w->loop == Loop::kOpen) {
    std::cerr << "servebench: generator lateness p99 " << live.late_p99_us
              << " us, p99.9 " << live.late_p999_us << " us, over "
              << live.late_samples << " packets\n";
  }
  if (w->loop == Loop::kOpen && live.late_p99_us > kLateBoundUs) {
    std::cerr << "servebench: INVALID run: generator p99 lateness "
              << live.late_p99_us << " us > " << kLateBoundUs << " us\n";
    return 3;
  }
  if (w->editor && live.edit_us.size() < kMinEditSamples) {
    std::cerr << "servebench: INVALID run: " << live.edit_us.size()
              << " edit samples < " << kMinEditSamples << '\n';
    return 3;
  }
  if (w->editor) {
    std::cerr << "servebench: edit latency samples=" << live.edit_us.size()
              << '\n';
  }

  std::vector<Metric> m;
  if (!tracer) {
    m.push_back({"serve_mpps", live.mpps, "Mpkt/s"});
    m.push_back({"cpu_us_per_pkt", live.cpu_us_per_pkt, "us"});
    m.push_back({"setup_s", live.setup_s, "s"});
    m.push_back({"rss_mb", live.rss_mb, "MiB"});
  } else {
    SpanLog* push_log = &tracer->thread_log();
    RingReplay ring;
    {
      ScopedSpan sp(main_log, "replay.ring");
      ring = replay_ring(*w, a.seed, main_log, push_log);
    }
    if (!ring.fifo) live.faults.push_back("ring replay: FIFO order broken");
    HookReplay hooks;
    {
      ScopedSpan sp(main_log, "replay.hooks");
      hooks = replay_hooks(*w, a.seed, main_log);
    }
    const double hook_ns = hooks.hook_ns;
    const double submit_ns =
        tracer->summarize()["serve.submit"].ns_per_item();
    const bool telemetry_on =
        w->telemetry != hfq::serve::TelemetrySpec::Level::kOff;

    m.push_back({"setup.parse_s", live.parse_s.at(0), "s"});
    m.push_back({"setup.service_s", live.service_s.at(0), "s"});
    m.push_back({"setup.start_s", live.start_s.at(0), "s"});
    m.push_back({"serve.submit_ns", submit_ns, "ns"});
    m.push_back({"ring.pop_ns", ring.pop_ns, "ns"});
    m.push_back({"ring.full_share", ring.full_share, "ratio"});
    SchedReplay sched;
    {
      ScopedSpan sp(main_log, "replay.scheduler");
      sched = replay_scheduler(w->scheduler, tree, *w, a.seed,
                               w->replay_packets, w->replay_window, main_log);
    }
    m.push_back({"sched.enq_ns", sched.enq_ns, "ns"});
    m.push_back({"sched.deq_ns", sched.deq_ns, "ns"});
    m.push_back({"sched.deq_fill", sched.deq_fill, "ratio"});
    m.push_back({"sched.backlog_pkts", sched.backlog_pkts, "pkts"});
    {
      // Per-level cost: H-WF²Q+ over the level tree against the same leaves
      // and input at depth 1. A hierarchical workload's level tree is its
      // own, already replayed above.
      const WorkloadSpec lw = level_spec(*w);
      SchedReplay deep = sched;
      if (w->fanout == 0) {
        ScopedSpan sp(main_log, "replay.level_tree");
        deep = replay_scheduler(lw.scheduler,
                                hfq::core::parse_hierarchy(tree_text(lw)),
                                lw, a.seed, lw.replay_packets,
                                lw.replay_window, nullptr);
      }
      ScopedSpan sp(main_log, "replay.depth1");
      const SchedReplay d1 = replay_scheduler(
          lw.scheduler, hfq::core::parse_hierarchy(flat_tree_text(lw)), lw,
          a.seed, lw.replay_packets, lw.replay_window, nullptr);
      const double ns_deep = deep.enq_ns + deep.deq_ns;
      const double ns_flat = d1.enq_ns + d1.deq_ns;
      m.push_back({"sched.level_ns",
                   (ns_deep - ns_flat) / static_cast<double>(lw.depth - 1),
                   "ns"});
    }
    m.push_back({"tele.hook_ns", hook_ns, "ns"});
    const double residual =
        1e3 / live.mpps -
        (submit_ns + ring.pop_ns + sched.enq_ns + sched.deq_ns +
         (telemetry_on ? hook_ns : 0.0));
    m.push_back({"serve.residual_ns", residual, "ns"});
    // The live plane's ticks where the service has one, else the
    // standalone plane's (hier-deep runs with telemetry off).
    m.push_back({"tele.tick_ms",
                 live.tick_ms.empty() ? hooks.tick_ms
                                      : quantile(live.tick_ms, 0.5),
                 "ms"});
    if (!w->editor) {
      run_edit_probe(*w, a.seed, kProbeEdits, main_log, live);
    }
    m.push_back({"edit.p50_us", quantile(live.edit_us, 0.5), "us"});
    m.push_back({"edit.p99_us", quantile(live.edit_us, 0.99), "us"});
    m.push_back({"edit.samples", static_cast<double>(live.edit_us.size()),
                 "count"});
    m.push_back({"edit.parse_us", quantile(live.parse_us, 0.5), "us"});
    m.push_back(
        {"edit.gate_wait_us", quantile(live.gate_wait_us, 0.5), "us"});
    m.push_back({"trace.overhead_share", 1.0 - live.traced_mpps / live.mpps,
                 "ratio"});
    std::cerr << "servebench: " << tracer->span_count() << " spans\n";
    if (!a.trace_out.empty() && !tracer->write(a.trace_out)) {
      std::cerr << "servebench: cannot write spans to " << a.trace_out
                << '\n';
      return 1;
    }
  }
  // An operation is a packet submitted or an edit batch applied; every
  // failed check counts as one more failure.
  for (const std::string& f : live.faults) {
    std::cerr << "servebench: FAIL " << f << '\n';
  }
  const std::uint64_t attempted =
      live.submitted + live.edits_applied + live.edits_failed;
  const std::uint64_t failed = live.ops_failed + live.faults.size();
  print_result(failed == 0, attempted, failed, m);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args a;
  std::string err;
  if (!servebench::parse_args(argc, argv, a, err)) {
    return servebench::usage(err);
  }
  if (a.fingerprint) {
    std::cout << servebench::BuildInfo{}.json() << std::endl;
    return 0;
  }
  if (a.workload.empty()) return servebench::usage("--workload is required");
  try {
    return servebench::run(a);
  } catch (const std::exception& e) {
    std::cerr << "servebench: error: " << e.what() << '\n';
    return 1;
  }
}
