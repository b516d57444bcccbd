#include "core/protosim.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/platform.hpp"
#include "core/window_injector.hpp"
#include "sched/global_scheduler.hpp"
#include "sched/sharded_scheduler.hpp"
#include "sim/simulation.hpp"

namespace nbos::core {

namespace {

/** Append @p task's outcome slot to @p tasks (submit unset) and return
 *  its index: closures hold indices, not pointers, so growth is safe. */
std::size_t
add_outcome(std::vector<TaskOutcome>& tasks,
            const workload::SessionSpec& session,
            const workload::CellTask& task)
{
    TaskOutcome& outcome = tasks.emplace_back();
    outcome.session = session.id;
    outcome.seq = task.seq;
    outcome.is_gpu = task.is_gpu;
    outcome.gpus = session.resources.gpus;
    return tasks.size() - 1;
}

/** The reply callback of every driver: record the request's timing and
 *  fate into tasks[index]. */
sched::SchedulerShard::ExecuteCallback
record_reply(std::vector<TaskOutcome>& tasks, std::size_t index)
{
    return [&tasks, index](const kernel::ExecutionResult& result,
                           const sched::RequestTrace& request_trace) {
        TaskOutcome& done = tasks[index];
        done.trace = request_trace;
        done.exec_start = request_trace.execution_started;
        done.exec_end = request_trace.execution_finished;
        done.reply = request_trace.client_replied;
        done.migrated = request_trace.migrated;
        done.aborted = request_trace.aborted ||
                       result.status == kernel::ExecutionStatus::kError;
        if (done.aborted) {
            done.error = result.error;
        }
    };
}

/** The pre-sharding single-event-loop engine: one GlobalScheduler on one
 *  simulation. Kept verbatim so SchedulerConfig::shards == 1 stays
 *  byte-identical to the historical prototype results. */
ExperimentResults
run_prototype_monolithic(const workload::Trace& trace,
                         const PlatformConfig& config)
{
    sim::Simulation simulation;
    sched::GlobalScheduler scheduler(simulation, config.scheduler,
                                     config.seed);
    scheduler.start();

    ExperimentResults results;
    results.policy = Policy::kNotebookOS;
    results.trace_name = trace.name;
    results.makespan = trace.makespan;
    // One outcome per cell task; reserving up front keeps the submit path
    // free of reallocation (closures hold indices, not pointers, so growth
    // is safe either way — this is purely an allocation-churn trim).
    std::size_t total_tasks = 0;
    for (const workload::SessionSpec& session : trace.sessions) {
        total_tasks += session.tasks.size();
    }
    results.tasks.reserve(total_tasks);

    struct SessionState
    {
        cluster::KernelId kernel = cluster::kNoKernel;
        bool ready = false;
        bool ended = false;
        std::deque<const workload::CellTask*> buffered;
    };
    std::map<workload::SessionId, SessionState> sessions;

    auto submit_task = [&](const workload::SessionSpec& session,
                           const workload::CellTask& task) {
        const std::size_t index = add_outcome(results.tasks, session, task);
        results.tasks[index].submit = simulation.now();
        scheduler.submit_execute(sessions[session.id].kernel, task.code,
                                 task.is_gpu, simulation.now(),
                                 record_reply(results.tasks, index));
    };

    for (const workload::SessionSpec& session : trace.sessions) {
        // Capture stable pointers into the trace (loop variables die at
        // iteration end; the closures outlive them).
        const workload::SessionSpec* sp = &session;
        simulation.schedule_at(session.start_time, [&sessions, &scheduler,
                                                    &submit_task, sp] {
            scheduler.start_kernel(
                sp->resources,
                [&sessions, &scheduler, &submit_task,
                 sp](cluster::KernelId kernel_id, bool ok) {
                    SessionState& st = sessions[sp->id];
                    st.kernel = kernel_id;
                    st.ready = ok;
                    if (st.ended) {
                        scheduler.stop_kernel(kernel_id);
                        return;
                    }
                    while (ok && !st.buffered.empty()) {
                        const workload::CellTask* task =
                            st.buffered.front();
                        st.buffered.pop_front();
                        submit_task(*sp, *task);
                    }
                });
        });
        if (session.end_time < trace.makespan) {
            simulation.schedule_at(session.end_time,
                                   [&sessions, &scheduler, sp] {
                                       SessionState& state = sessions[sp->id];
                                       state.ended = true;
                                       if (state.ready) {
                                           scheduler.stop_kernel(
                                               state.kernel);
                                       }
                                   });
        }
        for (const workload::CellTask& task : session.tasks) {
            const workload::CellTask* tp = &task;
            simulation.schedule_at(task.submit_time,
                                   [&sessions, &submit_task, sp, tp] {
                                       SessionState& state = sessions[sp->id];
                                       if (state.ended) {
                                           return;
                                       }
                                       if (state.ready) {
                                           submit_task(*sp, *tp);
                                       } else {
                                           state.buffered.push_back(tp);
                                       }
                                   });
        }
    }

    // Timeline sampler for provisioned GPUs and the subscription ratio.
    // Weak self-capture: the pending sample event owns the function, so
    // the sampler frees itself once the makespan is reached.
    auto sampler = std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> weak_sampler = sampler;
    *sampler = [&results, &scheduler, &simulation, &config, weak_sampler,
                &trace] {
        results.provisioned_gpus.record(
            simulation.now(),
            static_cast<double>(scheduler.cluster().total_gpus()));
        results.subscription_ratio.record(simulation.now(),
                                          scheduler.cluster_sr());
        if (simulation.now() < trace.makespan) {
            if (auto self = weak_sampler.lock()) {
                simulation.schedule_after(config.sample_interval,
                                          [self] { (*self)(); });
            }
        }
    };
    simulation.schedule_at(0, [sampler] { (*sampler)(); });

    // Run the trace plus a drain window for in-flight cells.
    simulation.run_until(trace.makespan + 12 * sim::kHour);

    // Collect platform-side metrics.
    results.events = scheduler.events();
    results.sched_stats = scheduler.stats();
    results.net_stats = scheduler.network_stats();
    results.sync_ms = scheduler.sync_latencies_ms();
    results.read_ms = scheduler.store().read_latencies();
    results.write_ms = scheduler.store().write_latencies();
    results.store_bytes_written = scheduler.store().bytes_written();
    finalize_tasks(results);
    return results;
}

/**
 * The sharded engine: sessions are partitioned across
 * SchedulerConfig::shards independent scheduler shards by the stable
 * ShardRouter hash, each shard advances on its own event loop, and the
 * driver steps all shards in lockstep sample_interval windows so the
 * merged autoscaler signals (provisioned GPUs, subscription ratio) are
 * sampled fleet-wide at the same grid a monolithic run uses.
 *
 * All cross-shard merges are deterministic (shard-index order; tasks are
 * canonically ordered by (submit, session, seq)), and the lockstep
 * windows may run shard threads in parallel with bit-identical results —
 * see DeterminismTest.ShardedPrototypeParallelBitIdenticalToSerial.
 */
ExperimentResults
run_prototype_sharded(const workload::Trace& trace,
                      const PlatformConfig& config)
{
    sched::ShardedGlobalScheduler scheduler(config.scheduler, config.seed);
    scheduler.start();

    ExperimentResults results;
    results.policy = Policy::kNotebookOS;
    results.trace_name = trace.name;
    results.makespan = trace.makespan;

    struct SessionState
    {
        cluster::KernelId kernel = cluster::kNoKernel;
        bool ready = false;
        bool ended = false;
        std::deque<const workload::CellTask*> buffered;
    };

    /** Everything one shard's closures touch: its own outcome vector and
     *  session table. Shard event loops run on parallel threads, so a
     *  driver must only ever be used from its shard's simulation. */
    struct ShardDriver
    {
        std::vector<TaskOutcome> tasks;
        std::map<workload::SessionId, SessionState> sessions;
    };
    std::vector<ShardDriver> drivers(
        static_cast<std::size_t>(scheduler.shard_count()));

    // Stateless helper shared by the per-shard closures: every call
    // touches only the passed driver and that driver's shard.
    auto submit_task = [&scheduler](ShardDriver& driver,
                                    sim::Simulation& simulation,
                                    const workload::SessionSpec& session,
                                    const workload::CellTask& task) {
        const std::size_t index = add_outcome(driver.tasks, session, task);
        driver.tasks[index].submit = simulation.now();
        scheduler.submit_execute(driver.sessions[session.id].kernel,
                                 task.code, task.is_gpu, simulation.now(),
                                 record_reply(driver.tasks, index));
    };

    std::size_t total_tasks = 0;
    for (const workload::SessionSpec& session : trace.sessions) {
        total_tasks += session.tasks.size();
        const std::size_t shard = scheduler.shard_of(session.id);
        ShardDriver& driver = drivers[shard];
        sim::Simulation& simulation = scheduler.simulation(shard);
        const workload::SessionSpec* sp = &session;
        simulation.schedule_at(
            session.start_time,
            [&scheduler, &driver, &submit_task, sp] {
                scheduler.start_kernel(
                    sp->id, sp->resources,
                    [&scheduler, &driver, &submit_task,
                     sp](cluster::KernelId kernel_id, bool ok) {
                        SessionState& st = driver.sessions[sp->id];
                        st.kernel = kernel_id;
                        st.ready = ok;
                        if (st.ended) {
                            scheduler.stop_kernel(kernel_id);
                            return;
                        }
                        while (ok && !st.buffered.empty()) {
                            const workload::CellTask* task =
                                st.buffered.front();
                            st.buffered.pop_front();
                            submit_task(driver,
                                        scheduler.simulation(
                                            scheduler.shard_of(sp->id)),
                                        *sp, *task);
                        }
                    });
            });
        if (session.end_time < trace.makespan) {
            simulation.schedule_at(session.end_time,
                                   [&scheduler, &driver, sp] {
                                       SessionState& state =
                                           driver.sessions[sp->id];
                                       state.ended = true;
                                       if (state.ready) {
                                           scheduler.stop_kernel(
                                               state.kernel);
                                       }
                                   });
        }
        for (const workload::CellTask& task : session.tasks) {
            const workload::CellTask* tp = &task;
            simulation.schedule_at(
                task.submit_time,
                [&scheduler, &driver, &submit_task, sp, tp] {
                    SessionState& state = driver.sessions[sp->id];
                    if (state.ended) {
                        return;
                    }
                    if (state.ready) {
                        submit_task(driver,
                                    scheduler.simulation(
                                        scheduler.shard_of(sp->id)),
                                    *sp, *tp);
                    } else {
                        state.buffered.push_back(tp);
                    }
                });
        }
    }

    // Lockstep windows on the sampling grid: advance every shard to t
    // (in parallel when configured), then sample the merged fleet-wide
    // autoscaler signals — the same 0, i, 2i, ... grid the monolithic
    // engine's sampler event produces.
    for (sim::Time t = 0;; t += config.sample_interval) {
        scheduler.run_until(t);
        results.provisioned_gpus.record(
            t, static_cast<double>(scheduler.total_gpus()));
        results.subscription_ratio.record(t, scheduler.cluster_sr());
        if (t >= trace.makespan) {
            break;
        }
    }
    // Drain window for in-flight cells.
    scheduler.run_until(trace.makespan + 12 * sim::kHour);

    // Deterministic cross-shard merge: concatenate in shard order, then
    // canonicalize.
    results.tasks.reserve(total_tasks);
    for (ShardDriver& driver : drivers) {
        std::move(driver.tasks.begin(), driver.tasks.end(),
                  std::back_inserter(results.tasks));
    }
    sort_tasks_canonical(results.tasks);

    results.events = scheduler.events();
    results.sched_stats = scheduler.stats();
    results.net_stats = scheduler.network_stats();
    results.sync_ms = scheduler.sync_latencies_ms();
    results.read_ms = scheduler.store_read_ms();
    results.write_ms = scheduler.store_write_ms();
    results.store_bytes_written = scheduler.store_bytes_written();
    finalize_tasks(results);
    return results;
}

}  // namespace

ExperimentResults
run_prototype_streamed(workload::SessionSource& source,
                       const PlatformConfig& config)
{
    if (config.scheduler.shards < 1) {
        throw std::invalid_argument("scheduler.shards must be >= 1");
    }
    WindowInjector injector(source, config.sample_interval);
    sched::ShardedGlobalScheduler scheduler(config.scheduler, config.seed);
    scheduler.start();

    const sim::Time makespan = source.makespan();
    ExperimentResults results;
    results.policy = Policy::kNotebookOS;
    results.trace_name = source.trace_name();
    results.makespan = makespan;

    // A cell's outcome slot is added when the cell is injected (on the
    // driving thread, between windows); cells the shards drop (submitted
    // after their session ended) are compacted away below.
    std::vector<char> submitted;

    // Lockstep windows on the sampling grid: inject the window's events
    // into their owners, advance every shard to t (in parallel when
    // configured), sample the merged autoscaler signals, then let the
    // policy rebalance before the next window's events are routed.
    for (;;) {
        for (const WindowEvent& event : injector.next_window()) {
            const workload::SessionSpec* sp = event.session;
            const std::size_t owner =
                event.kind == WindowEvent::Kind::kStart
                    ? scheduler.admit_session(sp->id)
                    : scheduler.shard_of(sp->id);
            sched::SchedulerShard* shard = &scheduler.shard(owner);
            sim::Simulation* simulation = &scheduler.simulation(owner);
            switch (event.kind) {
                case WindowEvent::Kind::kStart:
                    simulation->schedule_at(event.time, [shard, sp] {
                        shard->begin_session(sp->id, sp->resources);
                    });
                    break;
                case WindowEvent::Kind::kEnd:
                    simulation->schedule_at(event.time, [shard, sp] {
                        shard->end_session(sp->id);
                    });
                    break;
                case WindowEvent::Kind::kTask: {
                    const workload::CellTask* tp = event.task;
                    const std::size_t index =
                        add_outcome(results.tasks, *sp, *tp);
                    submitted.push_back(0);
                    simulation->schedule_at(
                        event.time, [shard, simulation, sp, tp, index,
                                     &results, &submitted] {
                            results.tasks[index].submit = simulation->now();
                            submitted[index] = shard->submit_session(
                                sp->id, tp->code, tp->is_gpu,
                                simulation->now(),
                                record_reply(results.tasks, index));
                        });
                    break;
                }
            }
        }
        const sim::Time t = injector.window_time();
        scheduler.run_until(t);
        results.provisioned_gpus.record(
            t, static_cast<double>(scheduler.total_gpus()));
        results.subscription_ratio.record(t, scheduler.cluster_sr());
        if (t >= makespan) {
            break;
        }
        scheduler.rebalance_window();
    }
    // Drain window for in-flight cells.
    scheduler.run_until(makespan + 12 * sim::kHour);

    std::size_t kept = 0;
    for (std::size_t i = 0; i < results.tasks.size(); ++i) {
        if (!submitted[i]) {
            continue;
        }
        if (kept != i) {
            results.tasks[kept] = std::move(results.tasks[i]);
        }
        ++kept;
    }
    results.tasks.resize(kept);
    sort_tasks_canonical(results.tasks);

    results.events = scheduler.events();
    results.sched_stats = scheduler.stats();
    results.net_stats = scheduler.network_stats();
    results.sync_ms = scheduler.sync_latencies_ms();
    results.read_ms = scheduler.store_read_ms();
    results.write_ms = scheduler.store_write_ms();
    results.store_bytes_written = scheduler.store_bytes_written();
    finalize_tasks(results);
    return results;
}

ExperimentResults
run_prototype_notebookos(const workload::Trace& trace,
                         const PlatformConfig& config)
{
    if (config.scheduler.shards < 1) {
        throw std::invalid_argument("scheduler.shards must be >= 1");
    }
    if (config.scheduler.shards == 1) {
        return run_prototype_monolithic(trace, config);
    }
    if (config.scheduler.routing == sched::RoutingPolicyKind::kStaticHash) {
        return run_prototype_sharded(trace, config);
    }
    // Sessions can change shards at window boundaries, so the trace goes
    // through the windowed driver, in (start_time, id) order.
    workload::SortedTraceSource source(trace);
    return run_prototype_streamed(source, config);
}

}  // namespace nbos::core
