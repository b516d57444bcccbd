/**
 * @file
 * WindowInjector: the trace-event feed of both engines' windowed drivers
 * (run_prototype_streamed, run_fast_streamed).
 *
 * The drivers advance every shard in lockstep windows on a fixed grid
 * t = k·interval. Before window k runs, each trace event due in it — a
 * session's start, its end (only when end_time < makespan) and its cells
 * — is routed to the shard that owns the session at that moment. The
 * injector pulls sessions from a SessionSource as the grid reaches their
 * start time and files each event into the bucket of the first window
 * with t ≥ event time. A bucket is handed over stable-sorted by
 * (time, session id, kind), with kinds ordered start < end < cell as in
 * the pre-scheduled drivers, so a cell due exactly at its session's end
 * is dropped by every driver. Same-tick cells of one session keep their
 * trace order.
 *
 * A session's spec is freed once the window holding its last event has
 * run, so memory tracks the live session population, not the trace
 * length.
 */
#ifndef NBOS_CORE_WINDOW_INJECTOR_HPP
#define NBOS_CORE_WINDOW_INJECTOR_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"
#include "workload/session_source.hpp"
#include "workload/trace.hpp"

namespace nbos::core {

/** One trace event handed to a windowed driver. */
struct WindowEvent
{
    enum class Kind : std::int32_t
    {
        kStart = 0,
        kEnd = 1,
        kTask = 2,
    };

    sim::Time time = 0;
    const workload::SessionSpec* session = nullptr;
    Kind kind = Kind::kStart;
    /** The cell (kTask only). */
    const workload::CellTask* task = nullptr;
};

class WindowInjector
{
  public:
    /** Called once per session as it is pulled, in source order. */
    using AdmitFn = std::function<void(const workload::SessionSpec&)>;

    /** @throws std::invalid_argument when @p interval is not positive
     *  (the window grid would never advance). */
    WindowInjector(workload::SessionSource& source, sim::Time interval,
                   AdmitFn on_admit = nullptr);

    /**
     * Open the next window (the first call opens t = 0): free the specs
     * of sessions whose last event was due in an earlier window, pull
     * every session starting at or before window_time(), and return the
     * window's events in (time, session id, kind) order. The events and
     * the specs they point to stay valid until the next call.
     *
     * @throws std::invalid_argument when the source is not sorted by
     *         start time or repeats the id of a session still held.
     */
    const std::vector<WindowEvent>& next_window();

    /** End of the window opened last: its events are due at or before
     *  it. */
    sim::Time window_time() const { return window_ * interval_; }

    /** Sessions whose specs are held (pulled and not yet freed). */
    std::size_t live_sessions() const { return live_.size(); }

  private:
    struct Bucket
    {
        std::vector<WindowEvent> events;
        /** Sessions whose last event is due in this window. */
        std::vector<workload::SessionId> last;
    };

    void admit(workload::SessionSpec&& spec);
    /** Index of the first window with t ≥ @p time. */
    std::int64_t window_of(sim::Time time) const;
    /** The bucket of window_of(@p time), or of the open window if that
     *  one has passed; nullptr past the last window. */
    Bucket* bucket_for(sim::Time time);

    workload::SessionSource& source_;
    sim::Time interval_;
    sim::Time makespan_;
    AdmitFn on_admit_;
    /** window_of(makespan): the last window the drivers run. Later
     *  events are never injected. */
    std::int64_t final_window_ = 0;
    /** Window opened last (-1 before the first call). */
    std::int64_t window_ = -1;
    /** buckets_[i] belongs to window window_ + i. */
    std::deque<Bucket> buckets_;
    std::unordered_map<workload::SessionId, workload::SessionSpec> live_;
    workload::SessionSpec pending_;
    bool has_pending_ = false;
    sim::Time last_start_ = std::numeric_limits<sim::Time>::min();
};

}  // namespace nbos::core

#endif  // NBOS_CORE_WINDOW_INJECTOR_HPP
