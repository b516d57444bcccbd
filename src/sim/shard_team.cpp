#include "sim/shard_team.hpp"

#include <utility>

namespace nbos::sim {

ShardTeam::ShardTeam(std::size_t shards, bool parallel, Body body)
    : body_(std::move(body)), errors_(shards)
{
    if (!parallel || shards < 2) {
        return;
    }
    helpers_.reserve(shards - 1);
    try {
        for (std::size_t i = 1; i < shards; ++i) {
            helpers_.emplace_back([this, i] { helper_loop(i); });
        }
    } catch (...) {
        // A failed spawn must not leave the started helpers joinable.
        stop();
        throw;
    }
}

ShardTeam::~ShardTeam()
{
    stop();
}

void
ShardTeam::run(Time t)
{
    target_ = t;
    if (!helpers_.empty()) {
        pending_.store(static_cast<std::uint32_t>(helpers_.size()),
                       std::memory_order_relaxed);
        generation_.fetch_add(1, std::memory_order_release);
        generation_.notify_all();
    }
    run_body(0, t);
    if (helpers_.empty()) {
        for (std::size_t i = 1; i < errors_.size(); ++i) {
            run_body(i, t);
        }
    } else {
        // The acquire load that sees 0 is the happens-before edge for
        // every helper's body writes and error slot.
        for (std::uint32_t left = pending_.load(std::memory_order_acquire);
             left != 0; left = pending_.load(std::memory_order_acquire)) {
            pending_.wait(left, std::memory_order_acquire);
        }
    }
    std::exception_ptr first;
    for (std::exception_ptr& error : errors_) {
        if (error && !first) {
            first = error;
        }
        error = nullptr;
    }
    if (first) {
        std::rethrow_exception(first);
    }
}

void
ShardTeam::helper_loop(std::size_t shard)
{
    for (std::uint32_t seen = 0;;) {
        generation_.wait(seen, std::memory_order_acquire);
        seen = generation_.load(std::memory_order_acquire);
        if (stopping_) {
            return;
        }
        run_body(shard, target_);
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            pending_.notify_one();
        }
    }
}

void
ShardTeam::run_body(std::size_t shard, Time t) noexcept
{
    try {
        body_(shard, t);
    } catch (...) {
        errors_[shard] = std::current_exception();
    }
}

void
ShardTeam::stop() noexcept
{
    if (helpers_.empty()) {
        return;
    }
    stopping_ = true;
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (std::thread& helper : helpers_) {
        helper.join();
    }
    helpers_.clear();
}

}  // namespace nbos::sim
