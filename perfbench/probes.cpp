#include "perfbench/probes.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/mpi/matching.h"
#include "src/sim/engine.h"
#include "src/sim/fiber.h"
#include "src/sim/process.h"
#include "src/via/memory.h"
#include "src/via/provider.h"
#include "src/via/vi.h"

namespace odmpi::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRepetitions = 7;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median over kRepetitions runs of `once`, which returns ns per operation.
double median_ns(const std::function<double()>& once) {
  std::vector<double> v;
  for (int i = 0; i < kRepetitions; ++i) v.push_back(once());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::uint32_t lcg(std::uint32_t& state) {
  state = state * 1664525u + 1013904223u;
  return state >> 8;
}

// Self-rescheduling event: keeps the queue at its initial depth until the
// budget runs out, then lets it drain.
struct Hop {
  sim::Engine* engine;
  std::uint64_t* budget;
  std::uint32_t* rng;
  void operator()() const {
    if (*budget == 0) return;
    --*budget;
    engine->schedule_after(1 + (lcg(*rng) & 0xFFFF), Hop{*this});
  }
};

}  // namespace

double probe_event_ns(std::size_t depth) {
  depth = std::max<std::size_t>(depth, 1);
  const std::uint64_t events = std::max<std::uint64_t>(400000, 4 * depth);
  return median_ns([&] {
    sim::Engine engine;
    std::uint64_t budget = events;
    std::uint32_t rng = 12345;
    for (std::size_t i = 0; i < depth; ++i) {
      engine.schedule_after(1 + (lcg(rng) & 0xFFFF), Hop{&engine, &budget, &rng});
    }
    const auto t0 = Clock::now();
    engine.run();
    return seconds_since(t0) * 1e9 /
           static_cast<double>(engine.events_processed());
  });
}

double probe_fiber_switch_ns(std::size_t fibers) {
  fibers = std::max<std::size_t>(fibers, 1);
  const std::size_t rounds = std::max<std::size_t>(1, 100000 / fibers);
  return median_ns([&] {
    bool stop = false;
    std::vector<std::unique_ptr<sim::Fiber>> fs;
    for (std::size_t i = 0; i < fibers; ++i) {
      fs.push_back(std::make_unique<sim::Fiber>([&stop] {
        while (!stop) sim::Fiber::yield_to_scheduler();
      }));
      fs.back()->resume();  // started, so the timed loop only switches
    }
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (auto& f : fs) f->resume();
    }
    const double ns = seconds_since(t0) * 1e9 /
                      static_cast<double>(2 * rounds * fibers);
    stop = true;
    for (auto& f : fs) f->resume();  // let every body return
    return ns;
  });
}

double probe_covers_ns(std::size_t regions) {
  regions = std::max<std::size_t>(regions, 1);
  constexpr std::size_t kRegionBytes = 256;
  constexpr std::size_t kCalls = 500000;
  std::vector<std::byte> arena(regions * kRegionBytes);
  via::MemoryRegistry registry;
  std::vector<via::MemoryHandle> handles;
  for (std::size_t i = 0; i < regions; ++i) {
    handles.push_back(
        registry.register_region(arena.data() + i * kRegionBytes, kRegionBytes));
  }
  std::vector<std::uint32_t> order(4096);
  std::uint32_t rng = 777;
  for (auto& o : order) o = lcg(rng) % static_cast<std::uint32_t>(regions);
  std::size_t hits = 0;
  const double ns = median_ns([&] {
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < kCalls; ++c) {
      const std::uint32_t i = order[c & (order.size() - 1)];
      hits += registry.covers(handles[i], arena.data() + i * kRegionBytes + 8,
                              64)
                  ? 1
                  : 0;
    }
    return seconds_since(t0) * 1e9 / static_cast<double>(kCalls);
  });
  // Every lookup names a live region, so every call must succeed.
  return hits == kCalls * kRepetitions ? ns : -1.0;
}

double probe_handshake_ns(int nodes, int peers) {
  nodes = std::max(nodes, 2);
  peers = std::clamp(peers, 1, nodes - 1);
  bool all_connected = true;
  const double ns = median_ns([&] {
    // Nobody polls: the processes post their requests and return, and the
    // handshakes complete in delivery events, so engine.run() times the
    // connection machinery alone.
    sim::Engine engine;
    via::Cluster cluster(engine, nodes, via::DeviceProfile::clan());
    std::vector<via::Vi*> vis(static_cast<std::size_t>(2 * peers), nullptr);
    std::vector<std::unique_ptr<sim::Process>> procs;
    procs.push_back(std::make_unique<sim::Process>(engine, 0, [&] {
      via::Nic& nic = cluster.nic(0);
      for (int p = 1; p <= peers; ++p) {
        via::Vi* vi = nic.create_vi(nullptr, nullptr);
        vis[static_cast<std::size_t>(p - 1)] = vi;
        (void)nic.connections().connect_peer(*vi, p, static_cast<via::Discriminator>(p));
      }
    }));
    for (int p = 1; p <= peers; ++p) {
      procs.push_back(std::make_unique<sim::Process>(engine, p, [&, p] {
        via::Nic& nic = cluster.nic(p);
        via::Vi* vi = nic.create_vi(nullptr, nullptr);
        vis[static_cast<std::size_t>(peers + p - 1)] = vi;
        (void)nic.connections().connect_peer(*vi, 0, static_cast<via::Discriminator>(p));
      }));
    }
    for (auto& p : procs) p->start();
    const auto t0 = Clock::now();
    engine.run();
    const double elapsed = seconds_since(t0);
    for (const via::Vi* vi : vis) {
      if (vi == nullptr || vi->state() != via::ViState::kConnected) {
        all_connected = false;
      }
    }
    return elapsed * 1e9 / peers;
  });
  return all_connected ? ns : -1.0;
}

double probe_match_ns(std::size_t depth, int sources) {
  depth = std::max<std::size_t>(depth, 1);
  sources = std::max(sources, 1);
  constexpr std::size_t kOps = 200000;
  constexpr mpi::ContextId kCtx = 0;
  auto source_of = [sources](std::size_t i) {
    return static_cast<mpi::Rank>(i % static_cast<std::size_t>(sources));
  };
  bool all_matched = true;
  const double ns = median_ns([&] {
    mpi::MatchingEngine engine;
    auto arrive = [&](std::size_t i) {
      const auto src = source_of(i);
      const auto tag = static_cast<mpi::Tag>(i);
      if (engine.match_arrival(kCtx, src, tag) != nullptr) all_matched = false;
      auto msg = std::make_unique<mpi::UnexpectedMsg>();
      msg->src = src;
      msg->tag = tag;
      msg->context = kCtx;
      engine.add_unexpected(std::move(msg));
    };
    auto recv = std::make_shared<mpi::RequestState>();
    recv->kind = mpi::ReqKind::kRecv;
    recv->context = kCtx;
    for (std::size_t i = 0; i < depth; ++i) arrive(i);
    const auto t0 = Clock::now();
    for (std::size_t op = 0; op < kOps; ++op) {
      arrive(depth + op);
      recv->src = source_of(op);
      recv->tag = static_cast<mpi::Tag>(op);
      mpi::UnexpectedMsg* m = engine.match_posted(recv);
      if (m == nullptr) {
        all_matched = false;
        continue;
      }
      engine.remove_unexpected(m);
    }
    return seconds_since(t0) * 1e9 / static_cast<double>(kOps);
  });
  return all_matched ? ns : -1.0;
}

}  // namespace odmpi::perfbench
