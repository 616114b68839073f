#include "workload.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "runner/splitmix.h"

namespace servebench {

using hfq::serve::TelemetrySpec;

namespace {

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> out;
  {
    // 1M equal sessions, ~262k packets in flight: ~230k backlogged flows
    // and flow tables far beyond the last-level cache.
    WorkloadSpec w;
    w.name = "flat-deep";
    w.scheduler = "wf2q+";
    w.reference = "wf2q+cal";
    w.sessions = 1'000'000;
    w.telemetry = TelemetrySpec::Level::kCounters;
    w.loop = Loop::kClosed;
    w.in_flight = 1u << 18;
    w.sizes = {64, 576, 1500};
    w.ring_capacity = 1u << 19;  // above the window: no submit can fail
    w.ingest_burst = 1024;       // above service_burst: the backlog moves
    w.service_burst = 256;       // from the ring into the scheduler
    // Per-packet cost keeps falling for ~2M packets after the window fills.
    w.warmup_s = 3.0;
    w.setups = 7;
    w.replay_packets = 1u << 22;
    w.replay_window = w.in_flight;
    // The calendar reference costs microseconds per packet once tens of
    // thousands of packets queue (README.md "Findings"); a 64k prefix
    // still takes the backlog past 48k packets.
    w.gate_packets = 1u << 16;
    out.push_back(w);
  }
  {
    // H-WF²Q+ with fanout 16 over four levels: every packet walks four node
    // servers. Telemetry off: the bypass for telemetry changes.
    WorkloadSpec w;
    w.name = "hier-deep";
    w.scheduler = "hwf2q+";
    w.reference = "hwf2q+cal";
    w.fanout = 16;
    w.depth = 4;
    w.sessions = 16 * 16 * 16 * 16;
    w.telemetry = TelemetrySpec::Level::kOff;
    w.loop = Loop::kClosed;
    w.in_flight = 1u << 16;
    w.sizes = {1000};
    w.ring_capacity = 1u << 17;
    w.ingest_burst = 1024;
    w.service_burst = 256;
    w.warmup_s = 2.0;
    w.setups = 25;
    w.replay_packets = 1u << 20;
    w.replay_window = w.in_flight;
    w.gate_packets = 1u << 18;
    out.push_back(w);
  }
  {
    // Control plane under paced, shallow-backlog traffic: live rate swaps
    // beside an open-loop stream of minimum-size packets.
    WorkloadSpec w;
    w.name = "edit-churn";
    w.scheduler = "wf2q+";
    w.reference = "wf2q+cal";
    w.sessions = 1024;
    w.shards = 2;
    w.paced = true;
    w.telemetry = TelemetrySpec::Level::kMonitor;
    w.loop = Loop::kOpen;
    w.offered_load = 0.5;
    w.sizes = {64};
    w.editor = true;
    w.setups = 101;
    w.replay_packets = 1u << 20;
    w.replay_window = 64;
    w.gate_packets = 1u << 18;
    out.push_back(w);
  }
  return out;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = make_workloads();
  return all;
}

// Shortest decimal that reads back as exactly `v`.
std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

// Uniform draw in [0, n) from one 64-bit output (multiply-shift).
std::uint32_t below(std::uint64_t x, std::size_t n) {
  return static_cast<std::uint32_t>(
      (static_cast<unsigned __int128>(x) * n) >> 64);
}

void emit_subtree(const WorkloadSpec& w, std::uint32_t level,
                  std::uint64_t index, std::string& out) {
  const std::string indent(2 * level, ' ');
  if (level == w.depth) {
    const auto leaf = static_cast<std::uint32_t>(index);
    out += indent + session_name(leaf) + ' ' + num(initial_rate(w, leaf)) +
           " flow=" + std::to_string(leaf) + '\n';
    return;
  }
  const double rate = w.link_bps / std::pow(w.fanout, level);
  out += indent + 'c' + std::to_string(level) + '_' + std::to_string(index) +
         ' ' + num(rate) + " {\n";
  for (std::uint32_t c = 0; c < w.fanout; ++c) {
    emit_subtree(w, level + 1, index * w.fanout + c, out);
  }
  out += indent + "}\n";
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * kFnvPrime;
  }
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadSpec& w : workloads()) out.push_back(w.name);
  return out;
}

std::string session_name(std::uint32_t i) { return "s" + std::to_string(i); }

double initial_rate(const WorkloadSpec& w, std::uint32_t i) {
  const double base = w.link_bps / w.sessions;
  if (!w.editor) return base;
  return (i % 2 == 0) ? 1.25 * base : 0.75 * base;
}

std::string tree_text(const WorkloadSpec& w) {
  if (w.fanout == 0) return flat_tree_text(w);
  std::string out = "link " + num(w.link_bps) + '\n';
  // The root's children are level 1; emit_subtree(level 0) would emit the
  // root itself as a class, so start one level down.
  for (std::uint32_t c = 0; c < w.fanout; ++c) emit_subtree(w, 1, c, out);
  return out;
}

std::string flat_tree_text(const WorkloadSpec& w) {
  std::string out = "link " + num(w.link_bps) + '\n';
  out.reserve(out.size() + 32ull * w.sessions);
  for (std::uint32_t i = 0; i < w.sessions; ++i) {
    out += session_name(i);
    out += ' ';
    out += num(initial_rate(w, i));
    out += " flow=";
    out += std::to_string(i);
    out += '\n';
  }
  return out;
}

WorkloadSpec level_spec(const WorkloadSpec& w) {
  if (w.fanout > 0) return w;
  WorkloadSpec l = w;
  l.scheduler = "hwf2q+";
  l.fanout = static_cast<std::uint32_t>(std::lround(std::sqrt(w.sessions)));
  l.depth = 2;
  if (l.fanout * l.fanout != w.sessions) {
    throw std::logic_error(w.name + ": session count is not a square");
  }
  // Two more replays of a large tree: a shorter prefix keeps them cheap.
  l.replay_packets = std::min<std::size_t>(w.replay_packets, 1u << 20);
  return l;
}

WorkloadSpec edit_probe_spec(const WorkloadSpec& w) {
  WorkloadSpec e = w;
  e.scheduler = "wf2q+";
  e.fanout = 0;
  e.depth = 1;
  e.editor = true;
  return e;
}

InputGen::InputGen(const WorkloadSpec& w, std::uint64_t seed)
    : state_(hfq::runner::derive_shard_seed(seed, 0)),
      sessions_(w.sessions), sizes_(w.sizes) {}

hfq::net::Packet InputGen::next() {
  hfq::net::Packet p;
  p.id = next_id_++;
  const std::uint64_t x = hfq::runner::splitmix64_next(state_);
  p.flow = below(x, sessions_);
  p.size_bytes = sizes_[below(hfq::runner::splitmix64_next(state_),
                              sizes_.size())];
  return p;
}

EditGen::EditGen(const WorkloadSpec& w, std::uint64_t seed)
    : state_(hfq::runner::derive_shard_seed(seed, 1)),
      hi_(initial_rate(w, 0)), lo_(initial_rate(w, 1)) {
  for (std::uint32_t i = 0; i < w.sessions; ++i) {
    (initial_rate(w, i) == hi_ ? hi_set_ : lo_set_).push_back(i);
  }
}

std::string EditGen::next() {
  if (hi_set_.empty() || lo_set_.empty()) return {};
  const std::uint32_t a =
      below(hfq::runner::splitmix64_next(state_), hi_set_.size());
  const std::uint32_t b =
      below(hfq::runner::splitmix64_next(state_), lo_set_.size());
  std::swap(hi_set_[a], lo_set_[b]);
  // hi_set_[a] was low and is now high; lo_set_[b] the other way round.
  return session_name(lo_set_[b]) + ' ' + num(lo_) + '\n' +
         session_name(hi_set_[a]) + ' ' + num(hi_) + '\n';
}

std::uint64_t input_digest(const WorkloadSpec& w, const std::string& tree,
                           std::uint64_t seed) {
  std::uint64_t h = kFnvOffset;
  fnv(h, tree.data(), tree.size());
  InputGen gen(w, seed);
  for (int i = 0; i < (1 << 16); ++i) {
    const hfq::net::Packet p = gen.next();
    fnv(h, &p.id, sizeof p.id);
    fnv(h, &p.flow, sizeof p.flow);
    fnv(h, &p.size_bytes, sizeof p.size_bytes);
  }
  if (w.editor) {
    EditGen edits(w, seed);
    for (int i = 0; i < 256; ++i) {
      const std::string e = edits.next();
      fnv(h, e.data(), e.size());
    }
  }
  return h;
}

}  // namespace servebench
