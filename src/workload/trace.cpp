#include "workload/trace.hpp"

#include <algorithm>

namespace nbos::workload {

std::size_t
Trace::task_count() const
{
    std::size_t count = 0;
    for (const SessionSpec& session : sessions) {
        count += session.tasks.size();
    }
    return count;
}

std::vector<const CellTask*>
Trace::tasks_by_submit_time() const
{
    std::vector<const CellTask*> tasks;
    tasks.reserve(task_count());
    for (const SessionSpec& session : sessions) {
        for (const CellTask& task : session.tasks) {
            tasks.push_back(&task);
        }
    }
    std::stable_sort(tasks.begin(), tasks.end(),
                     [](const CellTask* a, const CellTask* b) {
                         if (a->submit_time != b->submit_time) {
                             return a->submit_time < b->submit_time;
                         }
                         if (a->session != b->session) {
                             return a->session < b->session;
                         }
                         return a->seq < b->seq;
                     });
    return tasks;
}

std::vector<const SessionSpec*>
Trace::sessions_by_start() const
{
    std::vector<const SessionSpec*> order;
    order.reserve(sessions.size());
    for (const SessionSpec& session : sessions) {
        order.push_back(&session);
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const SessionSpec* a, const SessionSpec* b) {
                         if (a->start_time != b->start_time) {
                             return a->start_time < b->start_time;
                         }
                         return a->id < b->id;
                     });
    return order;
}

metrics::Percentiles
Trace::durations_seconds() const
{
    metrics::Percentiles p;
    for (const SessionSpec& session : sessions) {
        for (const CellTask& task : session.tasks) {
            p.add(sim::to_seconds(task.duration));
        }
    }
    return p;
}

metrics::Percentiles
Trace::iats_seconds() const
{
    metrics::Percentiles p;
    for (const SessionSpec& session : sessions) {
        for (std::size_t i = 1; i < session.tasks.size(); ++i) {
            p.add(sim::to_seconds(session.tasks[i].submit_time -
                                  session.tasks[i - 1].submit_time));
        }
    }
    return p;
}

metrics::Percentiles
Trace::session_busy_fractions() const
{
    metrics::Percentiles p;
    for (const SessionSpec& session : sessions) {
        const sim::Time lifetime = session.end_time - session.start_time;
        if (lifetime <= 0) {
            continue;
        }
        sim::Time busy = 0;
        for (const CellTask& task : session.tasks) {
            if (task.is_gpu) {
                busy += task.duration;
            }
        }
        p.add(std::min(1.0, sim::to_seconds(busy) /
                                sim::to_seconds(lifetime)));
    }
    return p;
}

}  // namespace nbos::workload
