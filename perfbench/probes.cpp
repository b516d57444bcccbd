#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "net/network.hpp"
#include "raft/raft.hpp"
#include "sched/placement.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

using namespace nbos;

namespace {

using Clock = std::chrono::steady_clock;

/** Keeps probed results observable so the loops are not optimized out. */
volatile std::size_t g_sink = 0;

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median over @p batches timed batches of @p body; each batch runs body
 *  until @p batch_seconds passed and returns (seconds, calls). */
template <typename Body>
double
median_seconds_per_call(int batches, double batch_seconds, Body&& body)
{
    std::vector<double> per_call;
    for (int b = 0; b < batches; ++b) {
        std::uint64_t calls = 0;
        const Clock::time_point start = Clock::now();
        double elapsed = 0.0;
        do {
            calls += body();
            elapsed = seconds_since(start);
        } while (elapsed < batch_seconds);
        per_call.push_back(elapsed / static_cast<double>(calls));
    }
    std::sort(per_call.begin(), per_call.end());
    return per_call[per_call.size() / 2];
}

/** A fleet of @p shape.servers 8-GPU servers with subscriptions spread
 *  around the target ratio and a few GPUs committed, deterministic. */
cluster::Cluster
make_fleet(const FleetShape& shape)
{
    constexpr std::int32_t kReplicas = 3;
    cluster::Cluster fleet(cluster::ResourceSpec::server_8gpu());
    sim::Rng rng(0x5eed);
    const double per_server =
        shape.subscription_ratio * 8.0 * static_cast<double>(kReplicas);
    for (std::size_t i = 0; i < std::max<std::size_t>(shape.servers, 1);
         ++i) {
        cluster::GpuServer& server = fleet.add_server();
        const auto target = static_cast<std::int32_t>(
            per_server * rng.uniform(0.5, 1.5));
        for (std::int32_t gpus = 0; gpus < target;) {
            cluster::ResourceSpec spec;
            spec.gpus = static_cast<std::int32_t>(
                std::min<std::int64_t>(rng.uniform_int(1, 4), target - gpus));
            spec.millicpus = 100;
            spec.memory_mb = 256;
            spec.vram_gb = 1.0;
            server.subscribe(spec);
            gpus += spec.gpus;
        }
        cluster::ResourceSpec busy;
        busy.gpus = static_cast<std::int32_t>(rng.uniform_int(0, 4));
        busy.millicpus = 100;
        busy.memory_mb = 256;
        busy.vram_gb = 1.0;
        if (busy.gpus > 0) {
            server.commit(busy);
        }
    }
    return fleet;
}

}  // namespace

double
probe_placement_pick_us(const FleetShape& shape)
{
    const cluster::Cluster fleet = make_fleet(shape);
    sched::LeastLoadedPolicy policy;
    static const std::int32_t kGpus[] = {1, 2, 4, 8};
    std::size_t next = 0;
    const double seconds = median_seconds_per_call(5, 0.04, [&] {
        cluster::ResourceSpec spec;
        spec.gpus = kGpus[next++ % 4];
        g_sink = g_sink + policy.pick(fleet, spec, 3, 3).size();
        return 1;
    });
    return seconds * 1e6;
}

double
probe_cluster_totals_ns(const FleetShape& shape)
{
    const cluster::Cluster fleet = make_fleet(shape);
    const double seconds = median_seconds_per_call(5, 0.02, [&] {
        g_sink = g_sink + static_cast<std::size_t>(
                              fleet.total_gpus() + fleet.total_subscribed_gpus());
        return 1;
    });
    return seconds * 1e9;
}

namespace {

/** Heartbeat/election timer mix: every heartbeat cancels and re-arms one
 *  election timer and re-arms itself, like an idle Raft group. */
struct TimerMix
{
    sim::Simulation simulation;
    std::vector<sim::EventId> election;
    sim::Rng rng{0x7133};

    explicit TimerMix(std::size_t timers) : election(timers, 0)
    {
        for (std::size_t i = 0; i < timers; ++i) {
            arm_election(i);
            arm_heartbeat(i);
        }
    }

    void
    arm_election(std::size_t i)
    {
        election[i] = simulation.schedule_after(
            2 * sim::kSecond +
                rng.uniform_int(0, 2 * sim::kSecond),
            [] {});
    }

    void
    arm_heartbeat(std::size_t i)
    {
        simulation.schedule_after(
            sim::kSecond + rng.uniform_int(0, 10 * sim::kMillisecond),
            [this, i] {
                simulation.cancel(election[i]);
                arm_election(i);
                arm_heartbeat(i);
            });
    }
};

}  // namespace

double
probe_sim_dispatch_ns(std::size_t timers)
{
    TimerMix mix(std::max<std::size_t>(timers, 16));
    mix.simulation.run_until(5 * sim::kSecond);  // warm the slab and wheel
    const double seconds = median_seconds_per_call(5, 0.04, [&] {
        const std::uint64_t before = mix.simulation.events_executed();
        mix.simulation.run_until(mix.simulation.now() + sim::kSecond);
        return mix.simulation.events_executed() - before;
    });
    return seconds * 1e9;
}

double
probe_net_msg_ns(std::size_t nodes)
{
    nodes = std::max<std::size_t>(nodes, 2);
    sim::Simulation simulation;
    net::Network network(simulation, sim::Rng(0x2e7));
    std::uint64_t received = 0;
    std::vector<net::NodeId> ids;
    for (std::size_t i = 0; i < nodes; ++i) {
        ids.push_back(network.register_node(
            [&received](const net::Message& message) {
                received += message.payload.get<std::uint64_t>() ? 1 : 0;
            }));
    }
    std::size_t cursor = 0;
    const double seconds = median_seconds_per_call(5, 0.04, [&] {
        const std::uint64_t before = received;
        for (int i = 0; i < 1024; ++i) {
            const std::size_t src = cursor++ % nodes;
            network.send(ids[src], ids[(src + 1) % nodes],
                         std::uint64_t{cursor});
        }
        simulation.run();
        return received - before;
    });
    return seconds * 1e9;
}

RaftProbe
probe_raft_commit()
{
    sim::Simulation simulation;
    net::Network network(simulation, sim::Rng(7));
    const std::vector<net::NodeId> members{1, 2, 3};
    std::vector<std::unique_ptr<raft::RaftNode>> nodes;
    std::uint64_t applied = 0;
    raft::RaftConfig config;
    config.heartbeat_interval = sim::kSecond;
    config.election_timeout_min = 2 * sim::kSecond;
    config.election_timeout_max = 4 * sim::kSecond;
    config.snapshot_threshold = 16;
    for (std::size_t i = 0; i < members.size(); ++i) {
        nodes.push_back(std::make_unique<raft::RaftNode>(
            simulation, network, members[i], members, config,
            sim::Rng(100 + i)));
        nodes.back()->set_apply([&applied](const raft::LogEntry&) {
            ++applied;
        });
    }
    for (auto& node : nodes) {
        node->start();
    }
    simulation.run_until(10 * sim::kSecond);
    raft::RaftNode* leader = nullptr;
    for (auto& node : nodes) {
        if (node->role() == raft::Role::kLeader) {
            leader = node.get();
        }
    }
    RaftProbe probe;
    if (leader == nullptr) {
        return probe;
    }
    std::uint64_t commits = 0;
    const std::uint64_t sent_before = network.stats().sent;
    const double seconds = median_seconds_per_call(5, 0.04, [&] {
        const std::uint64_t before = applied;
        leader->propose("cell-state");
        while (applied < before + members.size() && simulation.step()) {
        }
        ++commits;
        return 1;
    });
    probe.commit_us = seconds * 1e6;
    probe.msgs_per_commit =
        static_cast<double>(network.stats().sent - sent_before) /
        static_cast<double>(std::max<std::uint64_t>(commits, 1));
    return probe;
}

}  // namespace perfbench
