#include "core/sharded_fastsim.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/fastsim_engine.hpp"
#include "core/platform.hpp"
#include "sched/routing.hpp"
#include "sched/shard_router.hpp"
#include "sim/shard_team.hpp"

namespace nbos::core {

namespace {

/** Rebuild the committed-GPU step series from the merged task outcomes —
 *  the same tail FastEngineShard::finalize applies per shard, re-run over
 *  the canonical cross-shard task order. */
metrics::TimeSeries
committed_series(const std::vector<TaskOutcome>& tasks)
{
    std::vector<std::pair<sim::Time, double>> committed;
    for (const TaskOutcome& task : tasks) {
        if (task.is_gpu && !task.aborted) {
            committed.emplace_back(task.exec_start,
                                   static_cast<double>(task.gpus));
            committed.emplace_back(task.exec_end,
                                   -static_cast<double>(task.gpus));
        }
    }
    return series_from_deltas(std::move(committed));
}

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

/** Trace-event kinds of the windowed injection paths; the numeric order
 *  at equal times mirrors schedule_workload's per-session order (start,
 *  end, tasks). */
enum InjectionKind : std::int32_t
{
    kStart = 0,
    kEnd = 1,
    kTask = 2,
};

void
inject(FastEngineShard& owner, std::int32_t kind,
       const workload::SessionSpec* sp, const workload::CellTask* task)
{
    switch (kind) {
        case kStart:
            owner.inject_session_start(sp);
            break;
        case kEnd:
            owner.inject_session_end(sp);
            break;
        case kTask:
            owner.inject_task(sp, task);
            break;
        default:
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

    // Tasks: concatenate in shard order, then canonicalize to
    // (submit, session, seq) — a total order because a session's
    // (session, seq) pairs are unique.
    results.tasks.reserve(total_tasks);
    for (ExperimentResults& shard_results : per_shard) {
        std::move(shard_results.tasks.begin(), shard_results.tasks.end(),
                  std::back_inserter(results.tasks));
    }
    std::stable_sort(results.tasks.begin(), results.tasks.end(),
                     [](const TaskOutcome& a, const TaskOutcome& b) {
                         if (a.submit != b.submit) {
                             return a.submit < b.submit;
                         }
                         if (a.session != b.session) {
                             return a.session < b.session;
                         }
                         return a.seq < b.seq;
                     });

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

    results.committed_gpus = committed_series(results.tasks);
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

    std::vector<FastShardPlan> plans =
        base_plans(trace_.name, trace_.makespan, config_, count);
    const sim::Time horizon = trace_.makespan + 12 * sim::kHour;
    shard_busy_seconds_.assign(static_cast<std::size_t>(count), 0.0);

    if (config_.scheduler.routing == sched::RoutingPolicyKind::kRebalance) {
        // ---- Windowed rebalance path -------------------------------
        //
        // Sessions are admitted by the stable hash, but trace events are
        // injected one lockstep window at a time into the session's
        // *current* owner, and sched::plan_rebalance moves whole
        // sessions between shards at the autoscale-grid boundaries. The
        // plan is a pure function of the shard-order-merged window
        // loads, so parallel windows stay bit-identical to serial ones.
        for (FastShardPlan& plan : plans) {
            plan.windowed = true;
        }
        ShardList shards;
        shards.reserve(plans.size());
        for (FastShardPlan& plan : plans) {
            shards.push_back(
                std::make_unique<FastEngineShard>(std::move(plan),
                                                  config_));
        }
        for (const auto& shard : shards) {
            shard->start();
        }

        // One globally sorted injection list in (time, id, kind) order.
        struct Injection
        {
            sim::Time time;
            const workload::SessionSpec* sp;
            std::int32_t kind;
            const workload::CellTask* task;
        };
        std::vector<Injection> injections;
        std::size_t total_tasks = 0;
        for (const workload::SessionSpec& session : trace_.sessions) {
            total_tasks += session.tasks.size();
        }
        injections.reserve(trace_.sessions.size() * 2 + total_tasks);
        for (const workload::SessionSpec& session : trace_.sessions) {
            const workload::SessionSpec* sp = &session;
            injections.push_back(
                Injection{session.start_time, sp, kStart, nullptr});
            if (session.end_time < trace_.makespan) {
                injections.push_back(
                    Injection{session.end_time, sp, kEnd, nullptr});
            }
            for (const workload::CellTask& task : session.tasks) {
                injections.push_back(
                    Injection{task.submit_time, sp, kTask, &task});
            }
        }
        std::stable_sort(injections.begin(), injections.end(),
                         [](const Injection& a, const Injection& b) {
                             if (a.time != b.time) {
                                 return a.time < b.time;
                             }
                             if (a.sp->id != b.sp->id) {
                                 return a.sp->id < b.sp->id;
                             }
                             return a.kind < b.kind;
                         });

        sim::ShardTeam team = window_team(
            shards, shard_busy_seconds_, config_.scheduler.shard_parallel);
        sched::RoutingTable table(count);
        std::vector<std::uint64_t> window_events(shards.size(), 0);
        std::size_t cursor = 0;
        for (sim::Time t = 0;; t += config_.scheduler.autoscale_interval) {
            while (cursor < injections.size() &&
                   injections[cursor].time <= t) {
                const Injection& inj = injections[cursor++];
                inject(*shards[table.shard_of(inj.sp->id)], inj.kind,
                       inj.sp, inj.task);
            }
            team.run(t);
            if (t >= trace_.makespan) {
                break;
            }
            sessions_rebalanced_ +=
                rebalance_boundary(shards, table, window_events);
        }
        // Drain window for in-flight cells.
        team.run(horizon);

        events_executed_ = 0;
        shard_events_.clear();
        for (const auto& shard : shards) {
            shard_events_.push_back(shard->events_executed());
            events_executed_ += shard->events_executed();
        }
        return merge_shards(shards, trace_.name, trace_.makespan, config_);
    }

    if (config_.scheduler.routing ==
        sched::RoutingPolicyKind::kLeastLoaded) {
        // Admission-time partition: visit sessions in (start_time, id)
        // order — the order a live admission controller would see them —
        // and assign each to the shard with the least accumulated task
        // weight (ties: fewest sessions, then lowest index). The rest of
        // the run uses the same static machinery as the hash path.
        std::vector<const workload::SessionSpec*> order;
        order.reserve(trace_.sessions.size());
        for (const workload::SessionSpec& session : trace_.sessions) {
            order.push_back(&session);
        }
        std::stable_sort(order.begin(), order.end(),
                         [](const workload::SessionSpec* a,
                            const workload::SessionSpec* b) {
                             if (a->start_time != b->start_time) {
                                 return a->start_time < b->start_time;
                             }
                             return a->id < b->id;
                         });
        std::vector<std::uint64_t> weight(plans.size(), 0);
        std::vector<std::int64_t> assigned(plans.size(), 0);
        for (const workload::SessionSpec* sp : order) {
            std::size_t pick = 0;
            for (std::size_t i = 1; i < plans.size(); ++i) {
                if (weight[i] < weight[pick] ||
                    (weight[i] == weight[pick] &&
                     assigned[i] < assigned[pick])) {
                    pick = i;
                }
            }
            plans[pick].sessions.push_back(sp);
            weight[pick] += sp->tasks.size() + 1;
            assigned[pick] += 1;
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

    const std::string trace_name = source.trace_name();
    const sim::Time makespan = source.makespan();
    const sim::Time horizon = makespan + 12 * sim::kHour;
    const bool rebalancing =
        config.scheduler.routing == sched::RoutingPolicyKind::kRebalance;
    const bool least_loaded =
        config.scheduler.routing == sched::RoutingPolicyKind::kLeastLoaded;

    StreamedFastRun out;
    out.shard_busy_seconds.assign(static_cast<std::size_t>(count), 0.0);

    // Every policy streams through the windowed engine: events are
    // injected window by window into the session's current owner, exactly
    // as ShardedFastSim's rebalance path does for materialized traces.
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

    struct Injection
    {
        sim::Time time;
        const workload::SessionSpec* sp;
        std::int32_t kind;
        const workload::CellTask* task;
        std::uint64_t seq;
    };
    // Min-heap in the materialized driver's injection order (time, id,
    // kind); the insertion sequence breaks the one remaining tie
    // (same-session same-tick tasks) the way stable_sort does.
    struct InjectionAfter
    {
        bool operator()(const Injection& a, const Injection& b) const
        {
            if (a.time != b.time) {
                return a.time > b.time;
            }
            if (a.sp->id != b.sp->id) {
                return a.sp->id > b.sp->id;
            }
            if (a.kind != b.kind) {
                return a.kind > b.kind;
            }
            return a.seq > b.seq;
        }
    };
    std::priority_queue<Injection, std::vector<Injection>, InjectionAfter>
        injections;
    std::uint64_t next_seq = 0;

    // Live specs stay pinned (map nodes are stable) until their last
    // trace event has executed; memory tracks the concurrent-session
    // population, not the trace length.
    struct LiveSession
    {
        workload::SessionSpec spec;
        sim::Time last_event = 0;
    };
    std::map<workload::SessionId, LiveSession> live;
    using Retire = std::pair<sim::Time, workload::SessionId>;
    std::priority_queue<Retire, std::vector<Retire>, std::greater<Retire>>
        retire;

    sched::RoutingTable table(count);
    std::vector<std::uint64_t> weight(static_cast<std::size_t>(count), 0);
    std::vector<std::int64_t> assigned(static_cast<std::size_t>(count), 0);

    sim::Time last_start = std::numeric_limits<sim::Time>::min();
    const auto admit_one = [&](workload::SessionSpec&& incoming) {
        if (incoming.start_time < last_start) {
            throw std::invalid_argument(
                "streamed session source is not sorted by start time");
        }
        last_start = incoming.start_time;
        const auto [it, inserted] =
            live.emplace(incoming.id, LiveSession{std::move(incoming), 0});
        if (!inserted) {
            throw std::invalid_argument(
                "streamed session source repeated session id " +
                std::to_string(it->first));
        }
        const workload::SessionSpec* sp = &it->second.spec;
        if (least_loaded) {
            // The same running-weight pick ShardedFastSim applies to the
            // (start_time, id)-sorted materialized trace — which is
            // exactly the order a conforming source streams in.
            std::size_t pick = 0;
            for (std::size_t i = 1; i < weight.size(); ++i) {
                if (weight[i] < weight[pick] ||
                    (weight[i] == weight[pick] &&
                     assigned[i] < assigned[pick])) {
                    pick = i;
                }
            }
            table.assign(sp->id, static_cast<std::int32_t>(pick));
            weight[pick] += sp->tasks.size() + 1;
            assigned[pick] += 1;
        }
        sim::Time last_event = sp->start_time;
        injections.push(Injection{sp->start_time, sp, kStart, nullptr,
                                  next_seq++});
        if (sp->end_time < makespan) {
            injections.push(
                Injection{sp->end_time, sp, kEnd, nullptr, next_seq++});
            last_event = std::max(last_event, sp->end_time);
        }
        for (const workload::CellTask& task : sp->tasks) {
            injections.push(Injection{task.submit_time, sp, kTask, &task,
                                      next_seq++});
            last_event = std::max(last_event, task.submit_time);
        }
        it->second.last_event = last_event;
        retire.push(Retire{last_event, sp->id});
    };

    sim::ShardTeam team = window_team(shards, out.shard_busy_seconds,
                                      config.scheduler.shard_parallel);
    std::vector<std::uint64_t> window_events(shards.size(), 0);
    workload::SessionSpec pending;
    bool has_pending = source.next(pending);
    for (sim::Time t = 0;; t += config.scheduler.autoscale_interval) {
        while (has_pending && pending.start_time <= t) {
            workload::SessionSpec spec = std::move(pending);
            has_pending = source.next(pending);
            admit_one(std::move(spec));
        }
        while (!injections.empty() && injections.top().time <= t) {
            const Injection inj = injections.top();
            injections.pop();
            inject(*shards[table.shard_of(inj.sp->id)], inj.kind, inj.sp,
                   inj.task);
        }
        team.run(t);
        // Every event of a session with last_event <= t has been injected
        // and executed inside team.run, so its spec is unreferenced
        // (in-flight engine work holds copies, not trace pointers).
        while (!retire.empty() && retire.top().first <= t) {
            live.erase(retire.top().second);
            retire.pop();
        }
        if (t >= makespan) {
            break;
        }
        if (rebalancing) {
            out.sessions_rebalanced +=
                rebalance_boundary(shards, table, window_events);
        }
    }
    // Drain window for in-flight cells.
    team.run(horizon);

    out.events_executed = 0;
    for (const auto& shard : shards) {
        out.shard_events.push_back(shard->events_executed());
        out.events_executed += shard->events_executed();
    }
    out.results = merge_shards(shards, trace_name, makespan, config);
    return out;
}

}  // namespace nbos::core
