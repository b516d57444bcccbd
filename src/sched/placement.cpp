#include "sched/placement.hpp"

#include <algorithm>

namespace nbos::sched {

LeastLoadedPolicy::LeastLoadedPolicy(double sr_watermark)
    : sr_watermark_(sr_watermark)
{
}

double
LeastLoadedPolicy::current_limit(const cluster::Cluster& cluster,
                                 std::int32_t replicas_per_kernel) const
{
    return std::max(1.0,
                    cluster.cluster_subscription_ratio(replicas_per_kernel));
}

std::vector<cluster::ServerId>
LeastLoadedPolicy::pick(const cluster::Cluster& cluster,
                        const cluster::ResourceSpec& spec, std::size_t count,
                        std::int32_t replicas_per_kernel)
{
    // One pass: sum(G) and sum(S) over every server (draining ones
    // included) and each eligible server's SR with the new replica.
    std::int32_t total_gpus = 0;
    std::int32_t total_subscribed = 0;
    candidates_.clear();
    for (const auto& [id, server] : cluster.servers()) {
        total_gpus += server->capacity().gpus;
        total_subscribed += server->subscribed_gpus();
        if (server->draining() || !spec.fits_within(server->capacity())) {
            continue;
        }
        const double new_sr =
            static_cast<double>(server->subscribed_gpus() + spec.gpus) /
            (static_cast<double>(server->capacity().gpus) *
             static_cast<double>(replicas_per_kernel));
        // Hard watermark: never oversubscribe a server past it.
        if (new_sr > sr_watermark_ + 1e-9) {
            continue;
        }
        candidates_.push_back(Candidate{id, new_sr, server->committed_gpus(),
                                        server->subscribed_gpus(), false});
    }
    // The dynamic limit includes the incoming subscription so that an
    // at-average server still qualifies as "preferred" while sum(S) grows.
    double soft_limit = 1.0;
    if (total_gpus > 0 && replicas_per_kernel > 0) {
        soft_limit = std::max(
            soft_limit,
            static_cast<double>(total_subscribed + spec.gpus) /
                (static_cast<double>(total_gpus) *
                 static_cast<double>(replicas_per_kernel)));
    }
    for (Candidate& candidate : candidates_) {
        candidate.over_soft_limit = candidate.new_sr > soft_limit + 1e-9;
    }
    // Prefer servers under the dynamic limit, then least-loaded: fewest
    // actively used GPUs, then fewest subscribed, then id. The id makes
    // this a total order, so the best `count` are the same servers a full
    // sort would put first, in the same order.
    const std::size_t keep = std::min(count, candidates_.size());
    std::partial_sort(
        candidates_.begin(),
        candidates_.begin() + static_cast<std::ptrdiff_t>(keep),
        candidates_.end(), [](const Candidate& a, const Candidate& b) {
            if (a.over_soft_limit != b.over_soft_limit) {
                return !a.over_soft_limit;
            }
            if (a.committed != b.committed) {
                return a.committed < b.committed;
            }
            if (a.subscribed != b.subscribed) {
                return a.subscribed < b.subscribed;
            }
            return a.id < b.id;
        });
    std::vector<cluster::ServerId> chosen;
    chosen.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i) {
        chosen.push_back(candidates_[i].id);
    }
    return chosen;
}

std::vector<cluster::ServerId>
RoundRobinPolicy::pick(const cluster::Cluster& cluster,
                       const cluster::ResourceSpec& spec, std::size_t count,
                       std::int32_t replicas_per_kernel)
{
    (void)replicas_per_kernel;
    const auto ids = cluster.server_ids();
    std::vector<cluster::ServerId> chosen;
    if (ids.empty()) {
        return chosen;
    }
    for (std::size_t scanned = 0;
         scanned < ids.size() && chosen.size() < count; ++scanned) {
        const cluster::ServerId id = ids[(cursor_ + scanned) % ids.size()];
        const cluster::GpuServer* server = cluster.find(id);
        if (server != nullptr && !server->draining() &&
            spec.fits_within(server->capacity())) {
            chosen.push_back(id);
        }
    }
    cursor_ = (cursor_ + 1) % ids.size();
    return chosen;
}

}  // namespace nbos::sched
