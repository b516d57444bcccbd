/**
 * @file
 * Pluggable kernel-replica placement (§3.4.1).
 *
 * The default policy is the paper's least-loaded placement with the dynamic
 * cluster-wide subscription-ratio (SR) cap: a server is rejected when
 * hosting one more replica would push its SR above the cluster-wide limit
 * max(watermark, sum(S) / (sum(G) * R)).
 */
#ifndef NBOS_SCHED_PLACEMENT_HPP
#define NBOS_SCHED_PLACEMENT_HPP

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"

namespace nbos::sched {

/** Interface for placement policies (§3.4: "pluggable policy"). */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy() = default;

    /**
     * Choose up to @p count distinct servers able to host a replica of a
     * kernel requesting @p spec.
     *
     * @param replicas_per_kernel the R divisor in the SR.
     * @return chosen server ids (size < count means placement failed and a
     *         scale-out is required).
     */
    virtual std::vector<cluster::ServerId>
    pick(const cluster::Cluster& cluster, const cluster::ResourceSpec& spec,
         std::size_t count, std::int32_t replicas_per_kernel) = 0;

    /** Policy name for logs. */
    virtual const char* name() const = 0;
};

/**
 * The default least-loaded policy with the dynamic SR cap.
 *
 * Two thresholds govern subscriptions (§3.2.1/§3.4.1):
 *  - the *hard watermark*: a server whose SR would exceed it is never
 *    chosen ("a configurable high watermark that prevents excessive
 *    over-subscription");
 *  - the *dynamic limit* max(1, sum(S)/(sum(G)*R)): servers it would be
 *    exceeded on are "rejected in favor of another" — i.e. deprioritized
 *    when alternatives exist, which balances subscriptions while letting
 *    the cluster SR climb during creation bursts (Fig. 10).
 */
class LeastLoadedPolicy : public PlacementPolicy
{
  public:
    /** @param sr_watermark the hard per-server SR cap. */
    explicit LeastLoadedPolicy(double sr_watermark = 3.0);

    std::vector<cluster::ServerId>
    pick(const cluster::Cluster& cluster, const cluster::ResourceSpec& spec,
         std::size_t count, std::int32_t replicas_per_kernel) override;

    const char* name() const override { return "least-loaded"; }

    /** The dynamic cluster-wide SR limit, max(1, sum(S)/(sum(G)*R)). */
    double current_limit(const cluster::Cluster& cluster,
                         std::int32_t replicas_per_kernel) const;

    /** The hard per-server cap. */
    double watermark() const { return sr_watermark_; }

  private:
    struct Candidate
    {
        cluster::ServerId id;
        double new_sr;  ///< the server's SR with the new replica
        std::int32_t committed;
        std::int32_t subscribed;
        bool over_soft_limit;
    };

    double sr_watermark_;
    /** pick()'s per-call candidate buffer, kept to reuse its capacity. */
    std::vector<Candidate> candidates_;
};

/**
 * Round-robin placement without the SR cap — used by the ablation bench to
 * quantify what the default policy buys.
 */
class RoundRobinPolicy : public PlacementPolicy
{
  public:
    std::vector<cluster::ServerId>
    pick(const cluster::Cluster& cluster, const cluster::ResourceSpec& spec,
         std::size_t count, std::int32_t replicas_per_kernel) override;

    const char* name() const override { return "round-robin"; }

  private:
    std::size_t cursor_ = 0;
};

}  // namespace nbos::sched

#endif  // NBOS_SCHED_PLACEMENT_HPP
