// Layer probes: each one times calls into a single layer's public API at a
// size taken from a workload's own counters, and reports host nanoseconds
// per operation as the median of several repetitions.
#pragma once

#include <cstddef>

namespace odmpi::perfbench {

/// sim::Engine: ns per event (one schedule plus one pop-and-fire) with
/// `depth` live events queued.
double probe_event_ns(std::size_t depth);

/// sim::Fiber: ns per switch (half of one resume/yield round trip),
/// round-robin over `fibers` fibers.
double probe_fiber_switch_ns(std::size_t fibers);

/// via::MemoryRegistry::covers: ns per call over `regions` registered
/// regions, looked up in a scattered order.
double probe_covers_ns(std::size_t regions);

/// via::ConnectionService: host ns per peer-to-peer handshake when one
/// node of a `nodes`-node cLAN cluster connects to `peers` peers at once.
double probe_handshake_ns(int nodes, int peers);

/// mpi::MatchingEngine: ns per arrival+post pair (an arrival that finds no
/// posted receive and is queued as unexpected, then the receive that
/// claims the oldest entry) with `depth` unexpected messages queued from
/// `sources` distinct senders.
double probe_match_ns(std::size_t depth, int sources);

}  // namespace odmpi::perfbench
