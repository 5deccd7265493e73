// Job runner of the repository benchmark (see perfbench/README.md). Each
// invocation prints one JSON object on stdout; run.py starts one process per
// measured job so that peak RSS and the registration cache belong to that
// job alone.
//
//   odmpi_perfbench job <spec> <seed> <traced 0|1>
//       One batch job: World construction, run_job, and the paper's
//       outputs, host-time split, counters and (traced) trace summary.
//   odmpi_perfbench history <seed> <spec> <other-spec>...
//       Runs <spec>, then every other spec, then <spec> again in this one
//       process, and reports how the registration cache and the pinned
//       peak of the repeated run differ from the first.
//   odmpi_perfbench probes <ranks> <depth> <regions> <peers> <unexpected>
//       The layer probes of probes.h at the given sizes.
//
// A spec is KERNEL:CLASS:RANKS:MODEL, e.g. CG:A:64:ondemand; MODEL is
// "ondemand" or "static" (the paper's on-demand and static-polling
// configurations from bench/bench_util.h, cLAN profile).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "perfbench/probes.h"
#include "src/nas/common.h"
#include "src/odmpi.h"
#include "src/via/nic.h"

namespace odmpi::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Spec {
  std::string kernel;
  nas::Class cls = nas::Class::A;
  int ranks = 0;
  bool static_model = false;
};

Spec parse_spec(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t colon = text.find(':', start);
    parts.push_back(text.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.size() != 4 || parts[1].size() != 1 ||
      (parts[3] != "ondemand" && parts[3] != "static")) {
    std::fprintf(stderr, "bad spec '%s' (want KERNEL:CLASS:RANKS:MODEL)\n",
                 text.c_str());
    std::exit(2);
  }
  Spec s;
  s.kernel = parts[0];
  s.cls = nas::class_from_char(parts[1][0]);
  s.ranks = std::atoi(parts[2].c_str());
  s.static_model = parts[3] == "static";
  return s;
}

/// Minimal JSON object writer: one flat or nested object on stdout.
class Json {
 public:
  Json() { std::printf("{"); }
  void num(const char* key, double v) {
    sep();
    std::printf("\"%s\": %.17g", key, v);
  }
  void uint(const char* key, std::uint64_t v) {
    sep();
    std::printf("\"%s\": %llu", key, static_cast<unsigned long long>(v));
  }
  void str(const char* key, const std::string& v) {
    sep();
    std::printf("\"%s\": \"%s\"", key, v.c_str());
  }
  void boolean(const char* key, bool v) {
    sep();
    std::printf("\"%s\": %s", key, v ? "true" : "false");
  }
  void open(const char* key) {
    sep();
    std::printf("\"%s\": {", key);
    first_ = true;
  }
  void close() {
    std::printf("}");
    first_ = false;
  }
  void open_array(const char* key) {
    sep();
    std::printf("\"%s\": [", key);
    first_ = true;
  }
  void close_array() {
    std::printf("]");
    first_ = false;
  }
  void element() {
    sep();
    std::printf("{");
    first_ = true;
  }
  void end() { std::printf("}\n"); }

 private:
  void sep() {
    if (!first_) std::printf(", ");
    first_ = false;
  }
  bool first_ = true;
};

/// Peak resident set of this process (VmHWM), in bytes.
double peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) * 1024;
  }
  return 0;
}

/// One host-clock span recorded by the benchmark around a call into a
/// layer (not inside the program): name, start and end, parent index.
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
};

/// Median and maximum of the virtual durations (us) of the closed trace
/// spans named `name`; zeros when the run recorded none.
struct SpanStats {
  std::size_t count = 0;
  double p50_us = 0;
  double max_us = 0;
};

SpanStats trace_span_stats(const sim::Tracer& tracer, sim::Stats::Counter name) {
  std::vector<sim::SimTime> durs;
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const sim::Tracer::Event& e = tracer.event(i);
    if (e.name == name && e.ph == 'X' && !e.open) durs.push_back(e.dur);
  }
  SpanStats s;
  if (durs.empty()) return s;
  std::sort(durs.begin(), durs.end());
  s.count = durs.size();
  s.p50_us = static_cast<double>(durs[durs.size() / 2]) / 1e3;
  s.max_us = static_cast<double>(durs.back()) / 1e3;
  return s;
}

struct JobResult {
  mpi::RunStatus status = mpi::RunStatus::kOk;
  std::string summary;
  std::uint64_t seed = 0;  // as the World recorded it in JobOptions::seed
  nas::KernelResult kernel;
  bool all_verified = true;
  mpi::WorldMetrics metrics;
  double host_s = 0, setup_s = 0, body_s = 0, teardown_s = 0;
  std::uint64_t events = 0;         // sim::Engine events over the whole job
  std::size_t queue_depth_max = 0;  // events pending at body entry/exit
  double regions_per_rank = 0;      // registered regions at body exit
  sim::Stats counters;              // every rank's device+NIC counters once
  std::int64_t fabric_packets = 0, fabric_bytes = 0;
  // Traced jobs only.
  std::size_t trace_events = 0;
  std::int64_t unexpected_depth_max = 0;
  SpanStats handshake, park;
  std::vector<Span> spans;
};

JobResult run_one(const Spec& spec, std::uint64_t seed, bool traced) {
  const bench::Config cfg =
      spec.static_model ? bench::static_polling() : bench::on_demand();
  mpi::JobOptions opt = bench::job_options(cfg, /*bvia=*/false);
  opt.seed = seed;  // recorded with the job; the NAS kernels do not read it
  opt.trace.enabled = traced;

  const auto n = static_cast<std::size_t>(spec.ranks);
  std::vector<Clock::time_point> entered(n), left(n);
  std::vector<std::size_t> regions(n, 0);
  sim::Engine* engine = nullptr;
  JobResult out;
  const nas::KernelFn kernel = nas::kernel_by_name(spec.kernel);

  const auto t0 = Clock::now();
  mpi::World world(spec.ranks, opt);
  const auto t_built = Clock::now();
  const mpi::RunResult run = world.run_job([&](mpi::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    entered[r] = Clock::now();
    engine = &comm.device().nic().cluster().engine();
    out.queue_depth_max = std::max(out.queue_depth_max, engine->events_pending());
    const nas::KernelResult k = kernel(comm, spec.cls);
    regions[r] = comm.device().nic().memory().region_count();
    out.queue_depth_max = std::max(out.queue_depth_max, engine->events_pending());
    out.all_verified = out.all_verified && k.verified;
    if (r == 0) out.kernel = k;
    left[r] = Clock::now();
  });
  const auto t_end = Clock::now();

  const auto last_in = *std::max_element(entered.begin(), entered.end());
  const auto last_out = *std::max_element(left.begin(), left.end());
  out.status = run.status;
  out.summary = run.summary();
  out.seed = world.options().seed;
  out.metrics = world.metrics();
  out.host_s = seconds(t_end - t0);
  out.setup_s = seconds(last_in - t0);
  out.body_s = seconds(last_out - last_in);
  out.teardown_s = seconds(t_end - last_out);
  out.events = engine != nullptr ? engine->events_processed() : 0;
  double region_sum = 0;
  for (std::size_t r = 0; r < n; ++r) {
    region_sum += static_cast<double>(regions[r]);
    // World::aggregate_stats() adds the cluster's NIC totals to reports that
    // already hold each rank's NIC counters, so sum the reports instead.
    out.counters.merge(world.report(static_cast<int>(r)).device_stats);
  }
  out.regions_per_rank = region_sum / static_cast<double>(n);
  const sim::Stats all = world.aggregate_stats();
  out.fabric_packets = all.get("fabric.packets");
  out.fabric_bytes = all.get("fabric.bytes");

  if (traced) {
    const sim::Tracer& tracer = world.tracer();
    out.trace_events = tracer.size();
    out.handshake =
        trace_span_stats(tracer, sim::Stats::counter("mpi.conn.handshake"));
    out.park = trace_span_stats(tracer, sim::Stats::counter("mpi.send.park"));
    const sim::Stats::Counter depth = sim::Stats::counter("mpi.unexpected_depth");
    for (std::size_t i = 0; i < tracer.size(); ++i) {
      const sim::Tracer::Event& e = tracer.event(i);
      if (e.name == depth && e.ph == 'C') {
        out.unexpected_depth_max = std::max(out.unexpected_depth_max, e.a0);
      }
    }
    out.spans = {{"mpi.run_job", t0, t_end, -1},
                 {"mpi.World", t0, t_built, 0},
                 {"setup", t0, last_in, 0},
                 {"nas.kernel", last_in, last_out, 0},
                 {"teardown", last_out, t_end, 0}};
  }
  return out;
}

void print_spans(Json& o, const std::vector<Span>& spans) {
  o.open_array("spans");
  const Clock::time_point origin = spans.front().start;
  for (const Span& s : spans) {
    o.element();
    o.str("name", s.name);
    o.num("start_us", seconds(s.start - origin) * 1e6);
    o.num("dur_us", seconds(s.end - s.start) * 1e6);
    o.num("parent", s.parent);
    o.close();
  }
  o.close_array();
}

void print_job(bool traced, const JobResult& j) {
  Json o;
  o.str("status", mpi::to_string(j.status));
  o.str("summary", j.summary);
  o.uint("seed", j.seed);
  o.boolean("verified", j.all_verified && j.kernel.verified);
  o.num("checksum", j.kernel.checksum);
  o.num("virtual_s", j.kernel.time_sec);
  o.num("init_us", j.metrics.mean_init_us);
  o.num("vis_per_rank", j.metrics.mean_peak_vis_per_process);
  o.num("pinned_bytes", j.metrics.mean_pinned_bytes_peak);
  o.num("host_s", j.host_s);
  o.num("setup_s", j.setup_s);
  o.num("body_host_s", j.body_s);
  o.num("teardown_host_s", j.teardown_s);
  o.num("peak_rss_bytes", peak_rss_bytes());
  o.num("events", static_cast<double>(j.events));
  o.num("queue_depth_max", static_cast<double>(j.queue_depth_max));
  o.num("regions_per_rank", j.regions_per_rank);
  o.open("counters");
  o.num("fabric.packets", static_cast<double>(j.fabric_packets));
  o.num("fabric.bytes", static_cast<double>(j.fabric_bytes));
  for (const auto& [name, value] : j.counters.all()) {
    o.num(name.c_str(), static_cast<double>(value));
  }
  o.close();
  if (traced) {
    o.open("trace");
    o.num("events", static_cast<double>(j.trace_events));
    o.num("unexpected_depth_max", static_cast<double>(j.unexpected_depth_max));
    o.num("handshake_spans", static_cast<double>(j.handshake.count));
    o.num("handshake_p50_us", j.handshake.p50_us);
    o.num("handshake_max_us", j.handshake.max_us);
    o.num("park_spans", static_cast<double>(j.park.count));
    o.num("park_p50_us", j.park.p50_us);
    o.num("park_max_us", j.park.max_us);
    o.close();
    print_spans(o, j.spans);
  }
  o.end();
}

int cmd_job(int argc, char** argv) {
  if (argc != 5) return 2;
  const Spec spec = parse_spec(argv[2]);
  const std::uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  const bool traced = std::string(argv[4]) == "1";
  print_job(traced, run_one(spec, seed, traced));
  return 0;
}

int cmd_history(int argc, char** argv) {
  if (argc < 5) return 2;
  const std::uint64_t seed = std::strtoull(argv[2], nullptr, 10);
  const Spec target = parse_spec(argv[3]);
  const JobResult fresh = run_one(target, seed, false);
  bool ok = fresh.status == mpi::RunStatus::kOk;
  for (int i = 4; i < argc; ++i) {
    ok = run_one(parse_spec(argv[i]), seed, false).status == mpi::RunStatus::kOk && ok;
  }
  const JobResult reused = run_one(target, seed, false);
  ok = ok && reused.status == mpi::RunStatus::kOk;
  const sim::Stats::Counter hits = sim::Stats::counter("mpi.reg_cache_hits");
  Json o;
  o.boolean("ok", ok);
  o.num("fresh_pinned_bytes", fresh.metrics.mean_pinned_bytes_peak);
  o.num("reused_pinned_bytes", reused.metrics.mean_pinned_bytes_peak);
  o.num("fresh_reg_cache_hits", static_cast<double>(fresh.counters.get(hits)));
  o.num("reused_reg_cache_hits", static_cast<double>(reused.counters.get(hits)));
  o.num("fresh_virtual_s", fresh.kernel.time_sec);
  o.num("reused_virtual_s", reused.kernel.time_sec);
  o.end();
  return 0;
}

int cmd_probes(int argc, char** argv) {
  if (argc != 7) return 2;
  const int ranks = std::atoi(argv[2]);
  const auto depth = static_cast<std::size_t>(std::atoll(argv[3]));
  const auto regions = static_cast<std::size_t>(std::atoll(argv[4]));
  const int peers = std::atoi(argv[5]);
  const auto unexpected = static_cast<std::size_t>(std::atoll(argv[6]));
  std::vector<Span> spans;
  Json o;
  auto timed = [&](const char* key, const char* layer, auto fn) {
    const auto t0 = Clock::now();
    o.num(key, fn());
    spans.push_back({layer, t0, Clock::now(), -1});
  };
  timed("event_ns", "sim.Engine", [&] { return probe_event_ns(depth); });
  timed("fiber_switch_ns", "sim.Fiber", [&] {
    return probe_fiber_switch_ns(static_cast<std::size_t>(ranks));
  });
  timed("covers_ns", "via.MemoryRegistry",
        [&] { return probe_covers_ns(regions); });
  timed("handshake_ns", "via.ConnectionService",
        [&] { return probe_handshake_ns(ranks, peers); });
  timed("match_ns", "mpi.MatchingEngine",
        [&] { return probe_match_ns(unexpected, peers); });
  print_spans(o, spans);
  o.end();
  return 0;
}

}  // namespace
}  // namespace odmpi::perfbench

int main(int argc, char** argv) {
  using namespace odmpi::perfbench;
  const std::string cmd = argc > 1 ? argv[1] : "";
  int rc = 2;
  if (cmd == "job") rc = cmd_job(argc, argv);
  if (cmd == "history") rc = cmd_history(argc, argv);
  if (cmd == "probes") rc = cmd_probes(argc, argv);
  if (rc == 2) {
    std::fprintf(stderr,
                 "usage: odmpi_perfbench job <spec> <seed> <traced>\n"
                 "       odmpi_perfbench history <seed> <spec> <spec>...\n"
                 "       odmpi_perfbench probes <ranks> <depth> <regions> "
                 "<peers> <unexpected>\n");
  }
  return rc;
}
