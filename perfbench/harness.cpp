// perfbench harness: one fresh process per measured run_multigroup point.
//
// The harness sits outside the library and times the calls into each
// layer's public entry point (it links libemcast.a like any other client
// and changes nothing inside it):
//
//   setup   default_network / default_hierarchical_network   topology.build
//           overlay::MultiGroupNetwork constructor            overlay.build
//           experiments::sharded_engine_config (sharded,      partition.build
//           process only)
//   run     experiments::run_multigroup(config)               experiments.run
//
// The Single engine does not partition; there sharded_engine_config is
// called once after the run, outside the timed spans, so the partition of
// the workload's overlay is still reported.
//
// The topology cache is per process, so the setup's topology call is cold
// and the run that follows finds it warm.  run_multigroup builds the trees
// and the partition again internally; that second build is part of the
// run's wall time, not of the setup.
//
// Modes:
//   --mode timed  setup + one timed run_multigroup call (the default).
//   --mode probe  the same config on the Single, Sharded and Process
//                 engines, untimed, for the cross-engine identity check.
//
// Output: one JSON object on stdout (doubles as %.17g, so they round-trip
// exactly).  With --trace 1 its "spans" list holds the spans recorded
// around each call: id, parent, name, start and end in seconds since the
// harness started.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiments/multigroup_sim.hpp"
#include "overlay/multigroup.hpp"

namespace {

using namespace emcast;
using namespace emcast::experiments;
using Clock = std::chrono::steady_clock;

struct Span {
  int id = 0;
  int parent = -1;
  std::string name;
  double start = 0;
  double end = 0;
};

/// Spans kept in memory and printed with the result.  Durations are
/// always measured (they are the metrics); only recording is switchable.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  /// Time fn() as a span named `name` under `parent`; returns its seconds.
  template <class Fn>
  double span(const char* name, int parent, Fn&& fn, int* id_out = nullptr) {
    const int id = next_id_++;
    if (id_out != nullptr) *id_out = id;
    const auto a = Clock::now();
    fn();
    const auto b = Clock::now();
    if (on_) spans_.push_back({id, parent, name, since(a), since(b)});
    return std::chrono::duration<double>(b - a).count();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double since(Clock::time_point t) const {
    return std::chrono::duration<double>(t - t0_).count();
  }

  bool on_;
  Clock::time_point t0_;
  int next_id_ = 0;
  std::vector<Span> spans_;
};

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness [--mode timed|probe] "
               "[--engine single|sharded|process] [--hosts N] [--routers N] "
               "[--duration T] [--warmup T] [--seed N] [--topology-seed N] "
               "[--shards N] [--threads N] [--processes N] [--trace 0|1]\n",
               what.c_str());
  std::exit(2);
}

sim::EngineKind parse_engine(const std::string& s) {
  if (s == "single") return sim::EngineKind::Single;
  if (s == "sharded") return sim::EngineKind::Sharded;
  if (s == "process") return sim::EngineKind::Process;
  usage_error("unknown --engine " + s);
}

/// FNV-1a over the k-min delivery sample: equal digests mean the sampled
/// records agree bit for bit.
std::uint64_t sample_digest(const DeliveryTrace& sample) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const DeliveryRecord& r : sample) {
    mix(r.time_key);
    mix(r.packet_id);
    mix(static_cast<std::uint32_t>(r.group));
    mix(static_cast<std::uint32_t>(r.host));
  }
  return h;
}

void print_result(const MultiGroupSimResult& r) {
  std::printf(
      "{\"deliveries\": %llu, \"worst_case_delay\": %.17g, "
      "\"delay_p50\": %.17g, \"delay_p99\": %.17g, \"mean_delay\": %.17g, "
      "\"sample_size\": %zu, \"sample_digest\": \"%016llx\", "
      "\"rounds\": %llu, \"messages\": %llu, \"messages_spilled\": %llu, "
      "\"cross_edges\": %zu, \"total_edges\": %zu, \"lookahead\": %.17g, "
      "\"max_layers\": %d, \"max_height_hops\": %d, "
      "\"mode_switches\": %llu, \"losses\": %llu, "
      "\"delay_provider_bytes\": %zu, \"host_state_bytes\": %zu, "
      "\"bytes_per_host\": %.17g}",
      static_cast<unsigned long long>(r.deliveries), r.worst_case_delay,
      r.delay_p50, r.delay_p99, r.mean_delay, r.sample.size(),
      static_cast<unsigned long long>(sample_digest(r.sample)),
      static_cast<unsigned long long>(r.rounds),
      static_cast<unsigned long long>(r.messages),
      static_cast<unsigned long long>(r.messages_spilled), r.cross_edges,
      r.total_edges, r.lookahead, r.max_layers, r.max_height_hops,
      static_cast<unsigned long long>(r.mode_switches),
      static_cast<unsigned long long>(r.losses), r.delay_provider_bytes,
      r.host_state_bytes, r.bytes_per_host);
}

long max_rss_kb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return ru.ru_maxrss;
}

/// The MultiGroupConfig run_multigroup derives for the benchmark's
/// workloads (DSCT family, regulated schemes).
overlay::MultiGroupConfig overlay_config(const MultiGroupSimConfig& cfg) {
  overlay::MultiGroupConfig mc;
  mc.groups = cfg.groups;
  mc.scheme = overlay::TreeScheme::Dsct;
  mc.k = cfg.cluster_k;
  mc.utilization = cfg.utilization;
  mc.seed = cfg.seed;
  return mc;
}

int run_timed(const MultiGroupSimConfig& cfg, bool trace) {
  Tracer tracer(trace);
  const bool single = cfg.engine == sim::EngineKind::Single;
  const topology::AttachedNetwork* net = nullptr;
  std::unique_ptr<overlay::MultiGroupNetwork> mg;
  ShardedMultigroupEngine part;
  const auto partition = [&] {
    part = sharded_engine_config(*mg, cfg.shards, cfg.threads,
                                 cfg.mailbox_capacity, cfg.fwd_overhead);
  };
  int setup_id = 0;
  double topology_s = 0, overlay_s = 0, partition_s = 0;
  tracer.span("setup", -1, [&] {
    topology_s = tracer.span("topology.build", setup_id, [&] {
      net = cfg.routers > 0
                ? &default_hierarchical_network(cfg.routers, cfg.hosts,
                                                cfg.topology_seed)
                : &default_network(cfg.hosts, cfg.topology_seed);
    });
    overlay_s = tracer.span("overlay.build", setup_id, [&] {
      mg = std::make_unique<overlay::MultiGroupNetwork>(*net,
                                                        overlay_config(cfg));
    });
    if (!single) {
      partition_s = tracer.span("partition.build", setup_id, partition);
    }
  }, &setup_id);
  // Shape of the standalone overlay, outside the timed spans: run.py
  // checks it against the trees run_multigroup builds for itself.
  int overlay_layers = 0, overlay_height_hops = 0;
  for (int g = 0; g < mg->groups(); ++g) {
    overlay_layers = std::max(overlay_layers, mg->tree(g).hierarchy_layers());
    overlay_height_hops =
        std::max(overlay_height_hops, mg->tree(g).height_hops());
  }
  // The scale overlays are large: free them before the run so they do not
  // add to its peak RSS.  The Single engine does not partition, so its overlay is
  // kept and partitioned after the run, outside every timed span.
  if (!single) mg.reset();

  MultiGroupSimResult r;
  const double wall_s =
      tracer.span("experiments.run", -1, [&] { r = run_multigroup(cfg); });
  const long rss_self_kb = max_rss_kb(RUSAGE_SELF);
  const long rss_children_kb = max_rss_kb(RUSAGE_CHILDREN);
  if (single) {
    int after_id = 0;
    tracer.span("after_run", -1, [&] {
      tracer.span("partition.build", after_id, partition);
    }, &after_id);
  }

  std::printf(
      "{\"hardware_concurrency\": %u, \"setup\": {\"topology_s\": %.17g, "
      "\"overlay_s\": %.17g, \"partition_s\": %.17g}, "
      "\"overlay\": {\"max_layers\": %d, \"max_height_hops\": %d}, "
      "\"partition\": {\"cross_edges\": %zu, "
      "\"total_edges\": %zu, \"lookahead\": %.17g}, \"wall_s\": %.17g, "
      "\"rss_self_kb\": %ld, \"rss_children_kb\": %ld, \"result\": ",
      std::thread::hardware_concurrency(), topology_s, overlay_s, partition_s,
      overlay_layers, overlay_height_hops, part.cross_edges, part.total_edges,
      part.engine.lookahead, wall_s, rss_self_kb, rss_children_kb);
  print_result(r);
  std::printf(", \"spans\": [");
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::printf("%s{\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                "\"start\": %.9f, \"end\": %.9f}",
                i ? ", " : "", s.id, s.parent, s.name.c_str(), s.start,
                s.end);
  }
  std::printf("]}\n");
  return 0;
}

int run_probe(MultiGroupSimConfig cfg) {
  std::printf("{");
  const sim::EngineKind kinds[] = {sim::EngineKind::Single,
                                   sim::EngineKind::Sharded,
                                   sim::EngineKind::Process};
  for (std::size_t i = 0; i < 3; ++i) {
    cfg.engine = kinds[i];
    const MultiGroupSimResult r = run_multigroup(cfg);
    std::printf("%s\"%s\": ", i ? ", " : "", sim::to_string(cfg.engine));
    print_result(r);
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  MultiGroupSimConfig cfg;
  cfg.kind = TrafficKind::Audio;
  cfg.family = TreeFamily::Dsct;
  cfg.regulation = RegulationScheme::Adaptive;
  cfg.utilization = 0.9;
  cfg.groups = 3;
  cfg.cluster_k = 3;
  cfg.sample_deliveries = 64;
  std::string mode = "timed";
  bool trace = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--mode") mode = next();
      else if (flag == "--engine") cfg.engine = parse_engine(next());
      else if (flag == "--hosts") cfg.hosts = std::stoul(next());
      else if (flag == "--routers") cfg.routers = std::stoul(next());
      else if (flag == "--duration") cfg.duration = std::stod(next());
      else if (flag == "--warmup") cfg.warmup = std::stod(next());
      else if (flag == "--seed") cfg.seed = std::stoull(next());
      else if (flag == "--topology-seed") cfg.topology_seed = std::stoull(next());
      else if (flag == "--shards") cfg.shards = std::stoul(next());
      else if (flag == "--threads") cfg.threads = std::stoul(next());
      else if (flag == "--processes") cfg.processes = std::stoul(next());
      else if (flag == "--trace") trace = next() == "1";
      else usage_error("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag);
    }
  }
  if (mode != "timed" && mode != "probe") usage_error("unknown --mode " + mode);

  try {
    return mode == "probe" ? run_probe(cfg) : run_timed(cfg, trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
