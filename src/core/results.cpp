#include "core/results.hpp"

#include <algorithm>
#include <map>

namespace nbos::core {

const char*
to_string(Policy policy)
{
    switch (policy) {
      case Policy::kReservation:
        return "reservation";
      case Policy::kBatch:
        return "batch";
      case Policy::kNotebookOS:
        return "notebookos";
      case Policy::kNotebookOSLCP:
        return "notebookos-lcp";
    }
    return "unknown";
}

std::optional<Policy>
policy_from_string(std::string_view name)
{
    for (const Policy policy :
         {Policy::kReservation, Policy::kBatch, Policy::kNotebookOS,
          Policy::kNotebookOSLCP}) {
        if (name == to_string(policy)) {
            return policy;
        }
    }
    return std::nullopt;
}

metrics::Percentiles
ExperimentResults::interactivity_delays_seconds() const
{
    metrics::Percentiles p;
    for (const TaskOutcome& task : tasks) {
        if (task.is_gpu && !task.aborted) {
            p.add(sim::to_seconds(task.interactivity_delay()));
        }
    }
    return p;
}

metrics::Percentiles
ExperimentResults::tct_ms() const
{
    metrics::Percentiles p;
    for (const TaskOutcome& task : tasks) {
        if (task.is_gpu && !task.aborted) {
            p.add(sim::to_millis(task.tct()));
        }
    }
    return p;
}

double
ExperimentResults::gpu_hours_provisioned() const
{
    return provisioned_gpus.integrate_hours(0, makespan);
}

double
ExperimentResults::gpu_hours_committed() const
{
    return committed_gpus.integrate_hours(0, makespan);
}

metrics::TimeSeries
ExperimentResults::active_trainings_series() const
{
    std::vector<std::pair<sim::Time, double>> deltas;
    for (const TaskOutcome& task : tasks) {
        if (!task.is_gpu || task.aborted) {
            continue;
        }
        deltas.emplace_back(task.exec_start, 1.0);
        deltas.emplace_back(task.exec_end, -1.0);
    }
    return series_from_deltas(std::move(deltas));
}

std::size_t
ExperimentResults::aborted_count() const
{
    return static_cast<std::size_t>(
        std::count_if(tasks.begin(), tasks.end(),
                      [](const TaskOutcome& t) { return t.aborted; }));
}

metrics::TimeSeries
series_from_deltas(std::vector<std::pair<sim::Time, double>> deltas)
{
    std::sort(deltas.begin(), deltas.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    metrics::TimeSeries series;
    double value = 0.0;
    std::size_t i = 0;
    while (i < deltas.size()) {
        const sim::Time t = deltas[i].first;
        while (i < deltas.size() && deltas[i].first == t) {
            value += deltas[i].second;
            ++i;
        }
        series.record(t, value);
    }
    return series;
}

void
sort_tasks_canonical(std::vector<TaskOutcome>& tasks)
{
    std::stable_sort(tasks.begin(), tasks.end(),
                     [](const TaskOutcome& a, const TaskOutcome& b) {
                         if (a.submit != b.submit) {
                             return a.submit < b.submit;
                         }
                         if (a.session != b.session) {
                             return a.session < b.session;
                         }
                         return a.seq < b.seq;
                     });
}

void
finalize_tasks(ExperimentResults& results)
{
    std::vector<std::pair<sim::Time, double>> committed;
    for (TaskOutcome& task : results.tasks) {
        if (task.reply == 0) {
            task.aborted = true;
        }
        if (task.is_gpu && !task.aborted) {
            committed.emplace_back(task.exec_start,
                                   static_cast<double>(task.gpus));
            committed.emplace_back(task.exec_end,
                                   -static_cast<double>(task.gpus));
        }
    }
    results.committed_gpus = series_from_deltas(std::move(committed));
}

metrics::TimeSeries
oracle_gpu_series(const workload::Trace& trace)
{
    std::vector<std::pair<sim::Time, double>> deltas;
    for (const workload::SessionSpec& session : trace.sessions) {
        for (const workload::CellTask& task : session.tasks) {
            if (!task.is_gpu) {
                continue;
            }
            deltas.emplace_back(task.submit_time,
                                static_cast<double>(session.resources.gpus));
            deltas.emplace_back(task.submit_time + task.duration,
                                -static_cast<double>(
                                    session.resources.gpus));
        }
    }
    return series_from_deltas(std::move(deltas));
}

metrics::TimeSeries
reserved_gpu_series(const workload::Trace& trace)
{
    std::vector<std::pair<sim::Time, double>> deltas;
    for (const workload::SessionSpec& session : trace.sessions) {
        deltas.emplace_back(session.start_time,
                            static_cast<double>(session.resources.gpus));
        deltas.emplace_back(session.end_time,
                            -static_cast<double>(session.resources.gpus));
    }
    return series_from_deltas(std::move(deltas));
}

metrics::TimeSeries
active_sessions_series(const workload::Trace& trace)
{
    std::vector<std::pair<sim::Time, double>> deltas;
    for (const workload::SessionSpec& session : trace.sessions) {
        deltas.emplace_back(session.start_time, 1.0);
        deltas.emplace_back(session.end_time, -1.0);
    }
    return series_from_deltas(std::move(deltas));
}

metrics::TimeSeries
reexecution_saved_series(const workload::Trace& trace, sim::Time reclaim,
                         sim::Time step)
{
    // Collect (time, gpu-hours saved) impulses: one per idle reclamation.
    std::vector<std::pair<sim::Time, double>> impulses;
    for (const workload::SessionSpec& session : trace.sessions) {
        double executed_gpu_hours = 0.0;
        for (std::size_t i = 0; i < session.tasks.size(); ++i) {
            const workload::CellTask& task = session.tasks[i];
            if (i > 0) {
                const sim::Time prev_end =
                    session.tasks[i - 1].submit_time +
                    session.tasks[i - 1].duration;
                if (task.submit_time - prev_end > reclaim &&
                    executed_gpu_hours > 0.0) {
                    // The kernel was reclaimed during the gap; without
                    // NotebookOS's persisted state the user re-runs the
                    // notebook, repeating all GPU work done so far.
                    impulses.emplace_back(task.submit_time,
                                          executed_gpu_hours);
                }
            }
            if (task.is_gpu) {
                executed_gpu_hours +=
                    sim::to_hours(task.duration) *
                    static_cast<double>(session.resources.gpus);
            }
        }
    }
    std::sort(impulses.begin(), impulses.end());
    metrics::TimeSeries cumulative;
    double total = 0.0;
    std::size_t i = 0;
    for (sim::Time t = 0; t <= trace.makespan; t += step) {
        while (i < impulses.size() && impulses[i].first <= t) {
            total += impulses[i].second;
            ++i;
        }
        cumulative.record(t, total);
    }
    return cumulative;
}

}  // namespace nbos::core
