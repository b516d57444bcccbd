/**
 * @file
 * ShardedFastSim: the fast analytic engine partitioned across N
 * independent shards (SchedulerConfig::shards), one per thread of a
 * sim::ShardTeam that lives for the whole run.
 *
 * Sessions are routed to shards through the routing layer
 * (SchedulerConfig::routing, sched/routing.hpp):
 *
 *  - `static_hash` (default): the seed-independent sched::ShardRouter
 *    hash, byte-identical to the pre-routing implementation.
 *  - `least_loaded`: admission-time partition — sessions are assigned in
 *    (start_time, id) order to the shard with the least accumulated task
 *    weight, then run on the same static machinery.
 *  - `rebalance`: hash admission plus deterministic window-boundary
 *    whole-session migration, run by run_fast_streamed over the trace in
 *    (start_time, id) order (workload::SortedTraceSource). Shards advance
 *    in lockstep windows on the autoscale_interval grid; at each boundary
 *    the driver merges per-shard loads in shard order, plans migrations
 *    with sched::plan_rebalance (a pure function of the merged stats),
 *    and moves the chosen sessions before injecting the next window's
 *    trace events into their current owners.
 *
 * Each shard runs the full analytic model over its slice on its own
 * event loop (FastEngineShard), and the driver merges the per-shard
 * aggregates in shard order, so
 *
 *  - parallel ≡ serial (shards share nothing; the team's window
 *    completion is the only synchronization, and
 *    SchedulerConfig::shard_parallel off runs the same bodies serially),
 *    and
 *  - shards == 1 is byte-identical to the pre-sharding monolithic fast
 *    path (single shard, full trace, caller's seed, timeline recording)
 *    under every routing policy. It stays pre-scheduled: the windowed
 *    driver gives different results on one shard, and is slower.
 *
 * This is the scale path of ROADMAP open items 1 and 2:
 * bench/scale_sessions.cpp drives it to >= 1M sessions at shards
 * {1, 2, 4, 8}, and bench/scale_skewed.cpp compares the routing policies
 * on skewed traces.
 */
#ifndef NBOS_CORE_SHARDED_FASTSIM_HPP
#define NBOS_CORE_SHARDED_FASTSIM_HPP

#include <cstdint>
#include <vector>

#include "core/results.hpp"
#include "workload/session_source.hpp"
#include "workload/trace.hpp"

namespace nbos::core {

struct PlatformConfig;

/** Results plus the scale telemetry of one streamed fast-engine run
 *  (run_fast_streamed) — the same figures ShardedFastSim exposes through
 *  accessors after run(). */
struct StreamedFastRun
{
    ExperimentResults results;
    /** Simulation events executed across every shard. */
    std::uint64_t events_executed = 0;
    /** Per-shard simulation events, in shard order. */
    std::vector<std::uint64_t> shard_events;
    /** Wall seconds advancing each shard's event loop, in shard order. */
    std::vector<double> shard_busy_seconds;
    /** Whole sessions moved across shards (`rebalance` only). */
    std::uint64_t sessions_rebalanced = 0;
};

/**
 * Drive the sharded fast engine from a streamed injection @p source
 * without materializing the trace. A WindowInjector (window_injector.hpp)
 * pulls sessions as the autoscale_interval grid reaches their start time
 * and admits them through the configured routing policy (`static_hash` /
 * `rebalance`: the stable hash; `least_loaded`: running-weight admission
 * in arrival order); each window's events go to the session's current
 * owner, and specs are freed after the window holding their last event —
 * memory tracks the live session population, not the trace length
 * (pinned by the scale_profiles bench).
 *
 * Every policy runs the windowed engine (FastShardPlan::windowed). This
 * is the driver of ShardedFastSim's multi-shard `rebalance` runs, so a
 * conforming source over a trace gives the same results as
 * ShardedFastSim::run there; the other policies are deterministic but
 * windowed, unlike their pre-scheduled ShardedFastSim counterparts.
 *
 * @throws std::invalid_argument when @p source violates its nondecreasing
 *         start_time contract, repeats the id of a session still held,
 *         or config.scheduler.autoscale_interval is not positive.
 */
StreamedFastRun run_fast_streamed(workload::SessionSource& source,
                                  const PlatformConfig& config);

class ShardedFastSim
{
  public:
    /** @p trace and @p config must outlive the call to run(). */
    ShardedFastSim(const workload::Trace& trace,
                   const PlatformConfig& config);

    /** Run the trace to completion and return the merged results.
     *  Call at most once. */
    ExperimentResults run();

    /** Simulation events executed across every shard (valid after
     *  run(); throughput accounting for the scale bench). */
    std::uint64_t events_executed() const { return events_executed_; }

    /** Per-shard simulation events, in shard order (valid after run();
     *  empty for monolithic runs). Feeds the imbalance telemetry. */
    const std::vector<std::uint64_t>& shard_events() const
    {
        return shard_events_;
    }

    /** Wall seconds spent advancing each shard's event loop, in shard
     *  order (valid after run(); empty for monolithic runs). With
     *  shard_parallel off every loop is timed alone on the calling
     *  thread, so max(shard_busy_seconds) is the run's critical path —
     *  the scale benches use that for core-count-independent
     *  events/sec comparisons. */
    const std::vector<double>& shard_busy_seconds() const
    {
        return shard_busy_seconds_;
    }

    /** Whole sessions moved across shards (`rebalance` policy only;
     *  valid after run()). */
    std::uint64_t sessions_rebalanced() const
    {
        return sessions_rebalanced_;
    }

  private:
    const workload::Trace& trace_;
    const PlatformConfig& config_;
    std::uint64_t events_executed_ = 0;
    std::vector<std::uint64_t> shard_events_;
    std::vector<double> shard_busy_seconds_;
    std::uint64_t sessions_rebalanced_ = 0;
};

}  // namespace nbos::core

#endif  // NBOS_CORE_SHARDED_FASTSIM_HPP
