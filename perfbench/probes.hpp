/**
 * @file
 * Layer probes for the traced benchmark run: small, self-contained loops
 * that time one layer's public functions at the shape a workload gave
 * them (fleet size, subscription level, timer population). Each probe
 * returns host time per call, so multiplying it by the run's count of
 * matching calls estimates that layer's share of the run.
 */
#ifndef NBOS_PERFBENCH_PROBES_HPP
#define NBOS_PERFBENCH_PROBES_HPP

#include <cstddef>
#include <cstdint>

namespace perfbench {

/** Fleet shape a placement/cluster probe is built at. */
struct FleetShape
{
    /** Servers in the fleet (8-GPU shape). */
    std::size_t servers = 4;
    /** Cluster subscription ratio S / (G * R) to fill the fleet to. */
    double subscription_ratio = 1.0;
};

/** `LeastLoadedPolicy::pick` (3 replicas) on a fleet of @p shape:
 *  host microseconds per call. */
double probe_placement_pick_us(const FleetShape& shape);

/** `Cluster::total_gpus()` plus `total_subscribed_gpus()` on a fleet of
 *  @p shape: host nanoseconds per pair of calls. */
double probe_cluster_totals_ns(const FleetShape& shape);

/** `Simulation::schedule_after` / `cancel` / `run` with @p timers live
 *  Raft-like timers, each firing cancels and re-arms a peer's election
 *  timer: host nanoseconds per executed event. */
double probe_sim_dispatch_ns(std::size_t timers);

/** `Network::send` plus delivery between @p nodes endpoints:
 *  host nanoseconds per delivered message. */
double probe_net_msg_ns(std::size_t nodes);

/** Result of the Raft probe. */
struct RaftProbe
{
    /** Host microseconds per committed proposal. */
    double commit_us = 0.0;
    /** Network messages sent per committed proposal. */
    double msgs_per_commit = 0.0;
};

/** A 3-node `RaftNode` group on `net::Network`, proposing one entry at a
 *  time and running until every node applied it. */
RaftProbe probe_raft_commit();

}  // namespace perfbench

#endif  // NBOS_PERFBENCH_PROBES_HPP
