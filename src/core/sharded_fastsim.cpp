#include "core/sharded_fastsim.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/fastsim_engine.hpp"
#include "core/platform.hpp"
#include "core/window_injector.hpp"
#include "sched/routing.hpp"
#include "sched/shard_router.hpp"
#include "sim/shard_team.hpp"

namespace nbos::core {

namespace {

/** Shard-order base plans: the trace metadata, the round-robin split of
 *  the initial fleet (shares differ by at most one server), and the
 *  per-shard seeds (sched::shard_seed; shard 0 keeps the caller's). */
std::vector<FastShardPlan>
base_plans(const std::string& trace_name, sim::Time makespan,
           const PlatformConfig& config, std::int32_t count)
{
    std::vector<FastShardPlan> plans(static_cast<std::size_t>(count));
    const std::int32_t base_servers =
        config.scheduler.initial_servers / count;
    const std::int32_t extra_servers =
        config.scheduler.initial_servers % count;
    for (std::int32_t i = 0; i < count; ++i) {
        FastShardPlan& plan = plans[static_cast<std::size_t>(i)];
        plan.trace_name = trace_name;
        plan.makespan = makespan;
        plan.initial_servers = base_servers + (i < extra_servers ? 1 : 0);
        plan.seed = sched::shard_seed(config.seed, i);
        plan.record_timeline = false;
    }
    return plans;
}

double
elapsed_seconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

using ShardList = std::vector<std::unique_ptr<FastEngineShard>>;

/** The lockstep team the windowed paths advance through: body i runs
 *  shard i's event loop to the window target. The timer wraps the
 *  shard's own run_until and nothing else, so busy[i] never counts time
 *  spent waiting on the team. */
sim::ShardTeam
window_team(ShardList& shards, std::vector<double>& busy, bool parallel)
{
    return sim::ShardTeam(
        shards.size(), parallel,
        [&shards, &busy](std::size_t i, sim::Time t) {
            const auto begin = std::chrono::steady_clock::now();
            shards[i]->run_until(t);
            busy[i] += elapsed_seconds(begin);
        });
}

/** `least_loaded` admission: each session goes to the shard with the
 *  least accumulated task weight (ties: fewest sessions, then lowest
 *  index). */
class WeightedAdmission
{
  public:
    explicit WeightedAdmission(std::int32_t count)
        : weight_(static_cast<std::size_t>(count), 0),
          assigned_(static_cast<std::size_t>(count), 0)
    {
    }

    std::size_t admit(const workload::SessionSpec& spec)
    {
        std::size_t pick = 0;
        for (std::size_t i = 1; i < weight_.size(); ++i) {
            if (weight_[i] < weight_[pick] ||
                (weight_[i] == weight_[pick] &&
                 assigned_[i] < assigned_[pick])) {
                pick = i;
            }
        }
        weight_[pick] += spec.tasks.size() + 1;
        assigned_[pick] += 1;
        return pick;
    }

  private:
    std::vector<std::uint64_t> weight_;
    std::vector<std::int64_t> assigned_;
};

void
inject(FastEngineShard& owner, const WindowEvent& event)
{
    switch (event.kind) {
        case WindowEvent::Kind::kStart:
            owner.inject_session_start(event.session);
            break;
        case WindowEvent::Kind::kEnd:
            owner.inject_session_end(event.session);
            break;
        case WindowEvent::Kind::kTask:
            owner.inject_task(event.session, event.task);
            break;
    }
}

/** Window boundary under `rebalance`: merge the window's loads in shard
 *  order, plan with sched::plan_rebalance (a pure function of them), and
 *  move the chosen sessions. @return sessions moved. */
std::uint64_t
rebalance_boundary(ShardList& shards, sched::RoutingTable& table,
                   std::vector<std::uint64_t>& window_events)
{
    std::vector<sched::ShardLoad> loads(shards.size());
    std::vector<std::vector<sched::SessionLoad>> sessions(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
        shards[i]->harvest_window_load(loads[i], sessions[i]);
        const std::uint64_t executed = shards[i]->events_executed();
        loads[i].events = executed - window_events[i];
        window_events[i] = executed;
    }
    std::uint64_t moved = 0;
    for (const sched::MigrationDecision& move :
         sched::plan_rebalance(loads, sessions)) {
        FastEngineShard::FastSessionExtract extract;
        if (!shards[static_cast<std::size_t>(move.from)]->extract_session(
                move.session, extract)) {
            continue;
        }
        shards[static_cast<std::size_t>(move.to)]->adopt_session(extract);
        table.assign(move.session, move.to);
        ++moved;
    }
    return moved;
}

/** Deterministic cross-shard merge, always in shard order — shared by
 *  every multi-shard policy path. Consumes the shards (finish()). */
ExperimentResults
merge_shards(ShardList& shards, const std::string& trace_name,
             sim::Time makespan, const PlatformConfig& config)
{
    std::vector<ExperimentResults> per_shard;
    per_shard.reserve(shards.size());
    std::size_t total_tasks = 0;
    for (const auto& shard : shards) {
        per_shard.push_back(shard->finish());
        total_tasks += per_shard.back().tasks.size();
    }

    ExperimentResults results;
    results.policy = Policy::kNotebookOS;
    results.trace_name = trace_name;
    results.makespan = makespan;

    // Tasks: concatenate in shard order, then canonicalize.
    results.tasks.reserve(total_tasks);
    for (ExperimentResults& shard_results : per_shard) {
        std::move(shard_results.tasks.begin(), shard_results.tasks.end(),
                  std::back_inserter(results.tasks));
    }
    sort_tasks_canonical(results.tasks);

    std::vector<std::vector<sched::SchedulerEvent>> shard_events;
    shard_events.reserve(per_shard.size());
    for (ExperimentResults& shard_results : per_shard) {
        shard_events.push_back(std::move(shard_results.events));
        results.sched_stats += shard_results.sched_stats;
        results.read_ms.add_all(shard_results.read_ms.sorted());
        results.write_ms.add_all(shard_results.write_ms.sorted());
        results.store_bytes_written += shard_results.store_bytes_written;
    }
    results.events = sched::merge_events(shard_events);

    // Per-shard load telemetry (shard order): how the run's events spread
    // over the shards, surfaced on the benches' # TIMING lines.
    std::uint64_t total_events = 0;
    for (const auto& shard : shards) {
        total_events += shard->events_executed();
    }
    results.sched_stats.shard_loads.reserve(shards.size());
    for (const auto& shard : shards) {
        sched::ShardLoadSample sample;
        sample.sessions = shard->live_sessions();
        sample.events = shard->events_executed();
        sample.busy_fraction =
            total_events == 0
                ? 0.0
                : static_cast<double>(sample.events) /
                      static_cast<double>(total_events);
        results.sched_stats.shard_loads.push_back(sample);
    }

    // Fleet timeline: sum the per-shard (time, ±gpus) deltas into one
    // step series. Equal-time deltas collapse into a single sample whose
    // value is order-independent, so the merge is deterministic.
    std::vector<std::pair<sim::Time, double>> gpu_deltas;
    for (const auto& shard : shards) {
        gpu_deltas.insert(gpu_deltas.end(), shard->gpu_deltas().begin(),
                          shard->gpu_deltas().end());
    }
    results.provisioned_gpus = series_from_deltas(std::move(gpu_deltas));

    // Subscription ratio: every shard ticks on the same grid, so samples
    // merge positionally into sum(S) / (sum(G) * R) — the same formula
    // Cluster::cluster_subscription_ratio applies to one fleet.
    const std::size_t tick_count = shards.front()->tick_samples().size();
    for (const auto& shard : shards) {
        if (shard->tick_samples().size() != tick_count) {
            throw std::logic_error(
                "sharded fast engine: tick sample counts diverged");
        }
    }
    const std::int32_t replicas =
        std::max<std::int32_t>(1, config.scheduler.kernel.replica_count);
    for (std::size_t k = 0; k < tick_count; ++k) {
        std::int64_t subscribed = 0;
        std::int64_t gpus = 0;
        for (const auto& shard : shards) {
            const FastTickSample& sample = shard->tick_samples()[k];
            subscribed += sample.subscribed_gpus;
            gpus += sample.total_gpus;
        }
        const double ratio =
            gpus <= 0 ? 0.0
                      : static_cast<double>(subscribed) /
                            (static_cast<double>(gpus) *
                             static_cast<double>(replicas));
        results.subscription_ratio.record(
            shards.front()->tick_samples()[k].time, ratio);
    }

    finalize_tasks(results);
    return results;
}

}  // namespace

ShardedFastSim::ShardedFastSim(const workload::Trace& trace,
                               const PlatformConfig& config)
    : trace_(trace), config_(config)
{
}

ExperimentResults
ShardedFastSim::run()
{
    const std::int32_t count = config_.scheduler.shards;
    if (count < 1) {
        throw std::invalid_argument("scheduler.shards must be >= 1");
    }

    if (count == 1) {
        // The monolithic fast path, kept verbatim: one shard over the
        // full trace with the caller's seed and in-engine timeline
        // recording is byte-identical to the pre-sharding engine.
        FastShardPlan plan;
        plan.sessions.reserve(trace_.sessions.size());
        for (const workload::SessionSpec& session : trace_.sessions) {
            plan.sessions.push_back(&session);
        }
        plan.trace_name = trace_.name;
        plan.makespan = trace_.makespan;
        plan.initial_servers = config_.scheduler.initial_servers;
        plan.seed = config_.seed;
        plan.record_timeline = true;
        FastEngineShard engine(std::move(plan), config_);
        ExperimentResults results = engine.run();
        events_executed_ = engine.events_executed();
        return results;
    }

    if (config_.scheduler.routing == sched::RoutingPolicyKind::kRebalance) {
        // Sessions can change shards at window boundaries, so the trace
        // goes through the windowed driver, in (start_time, id) order.
        workload::SortedTraceSource source(trace_);
        StreamedFastRun run = run_fast_streamed(source, config_);
        events_executed_ = run.events_executed;
        shard_events_ = std::move(run.shard_events);
        shard_busy_seconds_ = std::move(run.shard_busy_seconds);
        sessions_rebalanced_ = run.sessions_rebalanced;
        return std::move(run.results);
    }

    std::vector<FastShardPlan> plans =
        base_plans(trace_.name, trace_.makespan, config_, count);
    const sim::Time horizon = trace_.makespan + 12 * sim::kHour;
    shard_busy_seconds_.assign(static_cast<std::size_t>(count), 0.0);

    if (config_.scheduler.routing ==
        sched::RoutingPolicyKind::kLeastLoaded) {
        // Admission-time partition in the order a live admission
        // controller would see the sessions; the rest of the run uses the
        // same static machinery as the hash path.
        WeightedAdmission admission(count);
        for (const workload::SessionSpec* sp : trace_.sessions_by_start()) {
            plans[admission.admit(*sp)].sessions.push_back(sp);
        }
    } else {
        // Static-hash partition, kept verbatim: the stable session-id
        // hash assigns every session to one shard (seed-independent, so
        // seed sweeps compare like against like); within a shard,
        // sessions keep their trace order.
        const sched::ShardRouter router(count);
        for (const workload::SessionSpec& session : trace_.sessions) {
            plans[router.shard_of(session.id)].sessions.push_back(
                &session);
        }
    }

    ShardList shards;
    shards.reserve(plans.size());
    for (FastShardPlan& plan : plans) {
        shards.push_back(std::make_unique<FastEngineShard>(std::move(plan),
                                                           config_));
    }

    // Shards never interact, so each one runs start-to-drain in a single
    // team window — shard 0 on the calling thread, the others on the
    // team's helpers (or serially, bit-identically, with shard_parallel
    // off). The window's completion orders every shard's writes before
    // the merges below.
    sim::ShardTeam team(
        shards.size(), config_.scheduler.shard_parallel,
        [this, &shards](std::size_t i, sim::Time t) {
            const auto begin = std::chrono::steady_clock::now();
            shards[i]->start();
            shards[i]->run_until(t);
            shard_busy_seconds_[i] += elapsed_seconds(begin);
        });
    team.run(horizon);

    events_executed_ = 0;
    shard_events_.clear();
    for (const auto& shard : shards) {
        shard_events_.push_back(shard->events_executed());
        events_executed_ += shard->events_executed();
    }
    return merge_shards(shards, trace_.name, trace_.makespan, config_);
}

StreamedFastRun
run_fast_streamed(workload::SessionSource& source,
                  const PlatformConfig& config)
{
    const std::int32_t count = config.scheduler.shards;
    if (count < 1) {
        throw std::invalid_argument("scheduler.shards must be >= 1");
    }

    const bool rebalancing =
        config.scheduler.routing == sched::RoutingPolicyKind::kRebalance;
    sched::RoutingTable table(count);
    WeightedAdmission admission(count);
    WindowInjector::AdmitFn admit;
    if (config.scheduler.routing == sched::RoutingPolicyKind::kLeastLoaded) {
        // The same pick ShardedFastSim applies to the (start_time,
        // id)-sorted materialized trace — which is exactly the order a
        // conforming source streams in.
        admit = [&table, &admission](const workload::SessionSpec& spec) {
            table.assign(spec.id,
                         static_cast<std::int32_t>(admission.admit(spec)));
        };
    }
    WindowInjector injector(source, config.scheduler.autoscale_interval,
                            std::move(admit));

    const std::string trace_name = source.trace_name();
    const sim::Time makespan = source.makespan();
    StreamedFastRun out;
    out.shard_busy_seconds.assign(static_cast<std::size_t>(count), 0.0);

    std::vector<FastShardPlan> plans =
        base_plans(trace_name, makespan, config, count);
    for (FastShardPlan& plan : plans) {
        plan.windowed = true;
    }
    ShardList shards;
    shards.reserve(plans.size());
    for (FastShardPlan& plan : plans) {
        shards.push_back(
            std::make_unique<FastEngineShard>(std::move(plan), config));
    }
    for (const auto& shard : shards) {
        shard->start();
    }

    // Lockstep windows on the autoscale grid: inject the window's events
    // into their current owners, advance every shard, then let the
    // policy move sessions before the next window is routed.
    sim::ShardTeam team = window_team(shards, out.shard_busy_seconds,
                                      config.scheduler.shard_parallel);
    std::vector<std::uint64_t> window_events(shards.size(), 0);
    for (;;) {
        for (const WindowEvent& event : injector.next_window()) {
            inject(*shards[table.shard_of(event.session->id)], event);
        }
        const sim::Time t = injector.window_time();
        team.run(t);
        if (t >= makespan) {
            break;
        }
        if (rebalancing) {
            out.sessions_rebalanced +=
                rebalance_boundary(shards, table, window_events);
        }
    }
    // Drain window for in-flight cells.
    team.run(makespan + 12 * sim::kHour);

    for (const auto& shard : shards) {
        out.shard_events.push_back(shard->events_executed());
        out.events_executed += shard->events_executed();
    }
    out.results = merge_shards(shards, trace_name, makespan, config);
    return out;
}

}  // namespace nbos::core
