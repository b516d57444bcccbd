/**
 * @file
 * Public entry point of the discrete-event prototype NotebookOS engine
 * (protosim.cpp): drives the full stack — Raft-replicated kernels,
 * executor elections, Global/Local schedulers — and is used for the
 * 17.5-hour excerpt experiments (§5.2). The analytic counterpart for
 * 90-day studies lives in fastsim.hpp.
 */
#ifndef NBOS_CORE_PROTOSIM_HPP
#define NBOS_CORE_PROTOSIM_HPP

#include "core/results.hpp"
#include "workload/session_source.hpp"
#include "workload/trace.hpp"

namespace nbos::core {

struct PlatformConfig;

/** Run @p trace through the prototype engine under @p config.
 *  Same-seed runs are bit-identical (see tests/determinism_test.cpp).
 *
 *  Three drivers: shards == 1 runs one GlobalScheduler with every trace
 *  event pre-scheduled (the historical monolithic engine); `static_hash`
 *  pre-schedules each session's events on its hashed shard and steps
 *  the shards in lockstep sampling windows; `least_loaded` and
 *  `rebalance` stream the trace through run_prototype_streamed in
 *  (start_time, id) order (workload::SortedTraceSource), because a
 *  session's owner is decided at admission and may change at any window
 *  boundary. */
ExperimentResults run_prototype_notebookos(const workload::Trace& trace,
                                           const PlatformConfig& config);

/**
 * Run a streamed injection @p source through the prototype engine's
 * windowed sharded driver without ever materializing the trace. A
 * WindowInjector (window_injector.hpp) pulls sessions as the lockstep
 * clock reaches their start window and hands over each sampling window's
 * events; each is routed to the session's current owner (starts through
 * the routing policy's admission), the shards advance to the window end,
 * the fleet signals are sampled, and under `rebalance` sessions move at
 * the boundary. Specs are freed after the window holding their last
 * event, so memory tracks the *live* session population.
 *
 * This is the driver of materialized `least_loaded` and `rebalance` runs
 * too, so a conforming source over a trace gives the same results as
 * run_prototype_notebookos. `static_hash` also runs (admission
 * degenerates to the stable hash), but windowed, unlike the
 * pre-scheduled static driver: that driver stamps a cell buffered while
 * its kernel starts with the flush time, not its trace time.
 *
 * @throws std::invalid_argument when @p source violates its nondecreasing
 *         start_time contract, repeats the id of a session still held,
 *         or config.sample_interval is not positive.
 */
ExperimentResults run_prototype_streamed(workload::SessionSource& source,
                                         const PlatformConfig& config);

}  // namespace nbos::core

#endif  // NBOS_CORE_PROTOSIM_HPP
