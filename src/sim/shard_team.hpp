/**
 * @file
 * A persistent lockstep thread team for the sharded windowed drivers.
 *
 * The sharded drivers (ShardedGlobalScheduler, ShardedFastSim,
 * run_fast_streamed) advance every shard to the next window boundary,
 * merge in shard order on the driving thread, and repeat — a week-long
 * run on the 30 s autoscale grid has ~20 k windows. ShardTeam keeps one
 * helper thread per sibling shard for the whole run, so a window costs
 * one wake-up and one completion signal instead of a thread spawn and
 * join per shard.
 */
#ifndef NBOS_SIM_SHARD_TEAM_HPP
#define NBOS_SIM_SHARD_TEAM_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "sim/time.hpp"

namespace nbos::sim {

/**
 * Runs body(i, t) for every shard index i in [0, shards) once per
 * run(t) call.
 *
 * With `parallel` and more than one shard, the team owns `shards - 1`
 * helper threads for its whole lifetime: body(0, t) runs on the calling
 * thread and body(i, t) on helper i. Helpers park between windows
 * (std::atomic::wait, no hand-written spinning). Otherwise the team has
 * no threads and run(t) calls the bodies serially in index order — one
 * advance path for every driver, whatever its shard count.
 *
 * run(t) returns only after every body has finished, so every write a
 * body made happens-before the caller's next statement. If any body
 * throws (on a helper or on the caller), the other bodies still run to
 * completion, every helper parks again, and run() rethrows the exception
 * of the lowest shard index that threw; the team stays usable. The
 * destructor stops and joins every helper, including during stack
 * unwinding.
 *
 * run() must not be called concurrently or from inside a body.
 */
class ShardTeam
{
  public:
    using Body = std::function<void(std::size_t shard, Time t)>;

    ShardTeam(std::size_t shards, bool parallel, Body body);
    ~ShardTeam();

    ShardTeam(const ShardTeam&) = delete;
    ShardTeam& operator=(const ShardTeam&) = delete;

    /** Run one lockstep window: body(i, t) for every shard. */
    void run(Time t);

    /** Shards per window (the index range of body). */
    std::size_t shards() const { return errors_.size(); }
    /** Helper threads owned by the team (0 when serial). */
    std::size_t helpers() const { return helpers_.size(); }

  private:
    void helper_loop(std::size_t shard);
    /** Run body(shard, t), parking any exception in errors_[shard]. */
    void run_body(std::size_t shard, Time t) noexcept;
    /** Wake every helper with stopping_ set and join them. */
    void stop() noexcept;

    Body body_;
    /** One slot per shard; written only by that shard's body runner and
     *  read by the caller after the window completes. */
    std::vector<std::exception_ptr> errors_;
    /** Window parameters, published by the release bump of generation_. */
    Time target_ = 0;
    bool stopping_ = false;
    /** Bumped once per window (and once to stop); helpers wait on it. */
    std::atomic<std::uint32_t> generation_{0};
    /** Helpers still running the current window; the caller waits on it. */
    std::atomic<std::uint32_t> pending_{0};
    std::vector<std::thread> helpers_;
};

}  // namespace nbos::sim

#endif  // NBOS_SIM_SHARD_TEAM_HPP
