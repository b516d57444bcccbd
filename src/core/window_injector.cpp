#include "core/window_injector.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace nbos::core {

WindowInjector::WindowInjector(workload::SessionSource& source,
                               sim::Time interval, AdmitFn on_admit)
    : source_(source),
      interval_(interval),
      makespan_(source.makespan()),
      on_admit_(std::move(on_admit))
{
    if (interval_ <= 0) {
        throw std::invalid_argument("window interval must be positive");
    }
    final_window_ = window_of(makespan_);
    has_pending_ = source_.next(pending_);
}

const std::vector<WindowEvent>&
WindowInjector::next_window()
{
    if (window_ >= 0) {
        // The previous window has run, so every event it held has fired
        // and the sessions whose last event it was are unreferenced.
        for (const workload::SessionId id : buckets_.front().last) {
            live_.erase(id);
        }
        buckets_.pop_front();
    }
    ++window_;
    if (buckets_.empty()) {
        buckets_.emplace_back();
    }
    while (has_pending_ && pending_.start_time <= window_time()) {
        workload::SessionSpec spec = std::move(pending_);
        has_pending_ = source_.next(pending_);
        admit(std::move(spec));
    }
    std::vector<WindowEvent>& events = buckets_.front().events;
    std::stable_sort(events.begin(), events.end(),
                     [](const WindowEvent& a, const WindowEvent& b) {
                         if (a.time != b.time) {
                             return a.time < b.time;
                         }
                         if (a.session->id != b.session->id) {
                             return a.session->id < b.session->id;
                         }
                         return a.kind < b.kind;
                     });
    return events;
}

void
WindowInjector::admit(workload::SessionSpec&& incoming)
{
    if (incoming.start_time < last_start_) {
        throw std::invalid_argument(
            "streamed session source is not sorted by start time");
    }
    last_start_ = incoming.start_time;
    const workload::SessionId id = incoming.id;
    const auto [it, inserted] = live_.try_emplace(id, std::move(incoming));
    if (!inserted) {
        throw std::invalid_argument(
            "streamed session source repeated session id " +
            std::to_string(id));
    }
    const workload::SessionSpec& spec = it->second;
    if (on_admit_) {
        on_admit_(spec);
    }

    const auto file = [this, &spec](sim::Time time, WindowEvent::Kind kind,
                                    const workload::CellTask* task) {
        if (Bucket* bucket = bucket_for(time)) {
            bucket->events.push_back(WindowEvent{time, &spec, kind, task});
        }
    };
    sim::Time last = spec.start_time;
    file(spec.start_time, WindowEvent::Kind::kStart, nullptr);
    if (spec.end_time < makespan_) {
        file(spec.end_time, WindowEvent::Kind::kEnd, nullptr);
        last = std::max(last, spec.end_time);
    }
    for (const workload::CellTask& task : spec.tasks) {
        file(task.submit_time, WindowEvent::Kind::kTask, &task);
        last = std::max(last, task.submit_time);
    }
    // A session with an event past the last window is never injected in
    // full; its spec stays held until the injector goes away.
    if (Bucket* bucket = bucket_for(last)) {
        bucket->last.push_back(id);
    }
}

std::int64_t
WindowInjector::window_of(sim::Time time) const
{
    return time <= 0 ? 0 : (time - 1) / interval_ + 1;
}

WindowInjector::Bucket*
WindowInjector::bucket_for(sim::Time time)
{
    const std::int64_t due = window_of(time);
    if (due > final_window_) {
        return nullptr;
    }
    const auto offset =
        static_cast<std::size_t>(std::max(due, window_) - window_);
    while (buckets_.size() <= offset) {
        buckets_.emplace_back();
    }
    return &buckets_[offset];
}

}  // namespace nbos::core
