/**
 * @file
 * Pull-based session streams: the injection interface shared by the
 * workload-profile generators, the streaming trace reader, and the two
 * NotebookOS engines' windowed drivers.
 *
 * A SessionSource yields complete SessionSpecs one at a time in
 * nondecreasing (start_time, id) order, so month-scale traces can be
 * generated, serialized, and simulated without ever materializing a full
 * workload::Trace in memory.
 */
#ifndef NBOS_WORKLOAD_SESSION_SOURCE_HPP
#define NBOS_WORKLOAD_SESSION_SOURCE_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "workload/trace.hpp"

namespace nbos::workload {

/** A stream of sessions in nondecreasing (start_time, id) order. */
class SessionSource
{
  public:
    virtual ~SessionSource() = default;

    /** Name the resulting trace/results carry. */
    virtual const std::string& trace_name() const = 0;

    /** Trace makespan: every session starts strictly before it. */
    virtual sim::Time makespan() const = 0;

    /** Produce the next session into @p out.
     *  @return false when the stream is exhausted (@p out untouched). */
    virtual bool next(SessionSpec& out) = 0;
};

/** Adapter streaming an already-materialized trace, session by session —
 *  the bridge that lets the streamed engine drivers be checked
 *  bit-for-bit against the in-memory ones. Sessions are copied out in
 *  trace order, which generated traces keep sorted by (start_time, id). */
class TraceSessionSource final : public SessionSource
{
  public:
    explicit TraceSessionSource(const Trace& trace) : trace_(trace) {}

    const std::string& trace_name() const override { return trace_.name; }
    sim::Time makespan() const override { return trace_.makespan; }

    bool next(SessionSpec& out) override
    {
        if (next_ >= trace_.sessions.size()) {
            return false;
        }
        out = trace_.sessions[next_++];
        return true;
    }

  private:
    const Trace& trace_;
    std::size_t next_ = 0;
};

/** Adapter streaming a materialized trace in Trace::sessions_by_start
 *  order whatever its session order, so any trace meets the
 *  SessionSource contract. The engines' materialized routed
 *  runs use it to drive their windowed drivers. */
class SortedTraceSource final : public SessionSource
{
  public:
    explicit SortedTraceSource(const Trace& trace)
        : trace_(trace), order_(trace.sessions_by_start())
    {
    }

    const std::string& trace_name() const override { return trace_.name; }
    sim::Time makespan() const override { return trace_.makespan; }

    bool next(SessionSpec& out) override
    {
        if (next_ >= order_.size()) {
            return false;
        }
        out = *order_[next_++];
        return true;
    }

  private:
    const Trace& trace_;
    std::vector<const SessionSpec*> order_;
    std::size_t next_ = 0;
};

}  // namespace nbos::workload

#endif  // NBOS_WORKLOAD_SESSION_SOURCE_HPP
