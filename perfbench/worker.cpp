/**
 * @file
 * One input of one benchmark run, in its own process: build input <k> of
 * the named workload from the run seed, run it once through core::run, and
 * print one JSON object with the host measurements, the model metrics, a
 * digest of the deterministic results and, with --trace, the program's
 * counters, the layer probes and the spans.
 *
 *   perfbench_worker --workload <name> --seed <n> --input <k>
 *                    [--samples <path>] [--trace]
 *   perfbench_worker --workload <name> --seed <n> --input <k>
 *                    --setup-sample <count>
 *
 * --samples writes the input's sorted interactivity delays (seconds) to
 * <path> as raw native-endian doubles. --setup-sample sets up inputs
 * k..k+count-1 of the run one after another, runs none of them, and
 * prints each one's set-up time.
 *
 * run.py drives this binary; README.md beside it explains every field.
 * Exit codes: 0 success, 1 the engine threw, 2 bad arguments.
 */
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/engine_api.hpp"
#include "probes.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace nbos;
using Clock = std::chrono::steady_clock;

/** @name In-memory spans
 *  Recorded around the worker's calls into the workload, core and
 *  metrics layers; written out once, with the result, at the end. */
///@{
struct Span
{
    const char* name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
};

class Spans
{
  public:
    Spans() : origin_(Clock::now()) {}

    int
    open(const char* name, int parent)
    {
        spans_.push_back({name, now(), 0.0, parent});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

    double
    seconds(int id) const
    {
        const Span& span = spans_[static_cast<std::size_t>(id)];
        return span.end - span.start;
    }

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_).count();
    }

    const std::vector<Span>& all() const { return spans_; }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};
///@}

/** Counting (and, traced, timing) decorator over the streamed input:
 *  every pull from the engine goes through next(). */
class MeteredSource final : public workload::SessionSource
{
  public:
    MeteredSource(std::unique_ptr<workload::SessionSource> inner, bool timed)
        : inner_(std::move(inner)), timed_(timed)
    {
    }

    const std::string& trace_name() const override
    {
        return inner_->trace_name();
    }
    sim::Time makespan() const override { return inner_->makespan(); }

    bool
    next(workload::SessionSpec& out) override
    {
        const Clock::time_point start =
            timed_ ? Clock::now() : Clock::time_point{};
        const bool more = inner_->next(out);
        if (timed_) {
            seconds_ +=
                std::chrono::duration<double>(Clock::now() - start).count();
        }
        if (more) {
            ++sessions_;
            cells_ += out.tasks.size();
        }
        return more;
    }

    std::uint64_t sessions() const { return sessions_; }
    std::uint64_t cells() const { return cells_; }
    double seconds() const { return seconds_; }

  private:
    std::unique_ptr<workload::SessionSource> inner_;
    bool timed_;
    std::uint64_t sessions_ = 0;
    std::uint64_t cells_ = 0;
    double seconds_ = 0.0;
};

/** A workload ready to run: the request plus the input it points into. */
struct Prepared
{
    core::RunRequest request;
    workload::Trace trace;
    std::unique_ptr<MeteredSource> source;
};

/** A named workload: a batch of @ref inputs independent inputs, each
 *  generated from its own sub-seed and run through core::run once. */
struct WorkloadSpec
{
    const char* name;
    std::size_t inputs;
    Prepared (*prepare)(std::uint64_t seed, bool traced);
};

core::PlatformConfig
notebookos_config(std::uint64_t seed)
{
    core::PlatformConfig config = core::PlatformConfig::prototype_defaults();
    config.policy = core::Policy::kNotebookOS;
    config.seed = seed;
    config.scheduler.shards = 1;
    return config;
}

/** §5.2: the prototype engine (Raft-replicated kernels) on the 17.5-hour
 *  AdobeTrace excerpt, autoscaler on, one shard. */
Prepared
prepare_proto_excerpt(std::uint64_t seed, bool)
{
    workload::GeneratorOptions options;
    options.makespan = 17 * sim::kHour + 30 * sim::kMinute;
    options.max_sessions = 90;
    options.sessions_survive_trace = true;
    Prepared prepared;
    prepared.trace = workload::ProfileRegistry::instance()
                         .create(workload::kProfileAdobe)
                         ->generate(seed, options);
    prepared.request.config = notebookos_config(seed);
    prepared.request.config.fast_mode = false;
    prepared.request.config.scheduler.enable_autoscaler = true;
    prepared.request.trace = &prepared.trace;
    return prepared;
}

/** §5.5 what-if: a week of flash crowds on a fixed 1,000-server fleet,
 *  materialized up front, fast engine, autoscaler off; placement-bound. */
Prepared
prepare_fast_flash_fleet(std::uint64_t seed, bool)
{
    workload::GeneratorOptions options;
    options.makespan = 7 * sim::kDay;
    options.arrival_rate_scale = 10.0;
    Prepared prepared;
    prepared.trace = workload::ProfileRegistry::instance()
                         .create(workload::kProfileFlashCrowd)
                         ->generate(seed, options);
    prepared.request.config = notebookos_config(seed);
    prepared.request.config.fast_mode = true;
    prepared.request.config.scheduler.initial_servers = 1000;
    prepared.request.config.scheduler.enable_autoscaler = false;
    prepared.request.trace = &prepared.trace;
    return prepared;
}

/** §5.5 what-if, streamed: adobe, philly and alibaba tenants pulled
 *  during the run by the fast engine on an autoscaled fleet, 4 shards
 *  with window-boundary rebalancing. */
Prepared
prepare_stream_autoscale(std::uint64_t seed, bool traced)
{
    workload::GeneratorOptions options;
    options.makespan = 7 * sim::kDay;
    options.max_sessions = 125;  // per tenant
    Prepared prepared;
    prepared.source = std::make_unique<MeteredSource>(
        workload::ProfileRegistry::instance()
            .create(workload::kProfileMultiTenant)
            ->open(seed, options),
        traced);
    prepared.request.config = notebookos_config(seed);
    prepared.request.config.fast_mode = true;
    prepared.request.config.scheduler.enable_autoscaler = true;
    prepared.request.config.scheduler.shards = 4;
    prepared.request.config.scheduler.shard_parallel = true;
    prepared.request.config.scheduler.routing =
        sched::RoutingPolicyKind::kRebalance;
    prepared.request.source = prepared.source.get();
    return prepared;
}

constexpr WorkloadSpec kWorkloads[] = {
    {"proto_excerpt", 5, prepare_proto_excerpt},
    {"fast_flash_fleet", 4, prepare_fast_flash_fleet},
    {"stream_autoscale", 5, prepare_stream_autoscale},
};

/** The sub-seed of input @p input of a run: a fixed function of the run
 *  seed, so one seed always names the same batch of inputs. */
std::uint64_t
input_seed(std::uint64_t seed, std::uint64_t input)
{
    sim::Rng rng(seed);
    std::uint64_t sub = 0;
    for (std::uint64_t i = 0; i <= input; ++i) {
        sub = rng.next_u64() >> 1;
    }
    return sub;
}

/** User plus system CPU seconds of this process, all threads. */
double
cpu_seconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                      usage.ru_stime.tv_usec);
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** FNV-1a over the deterministic results. */
class Digest
{
  public:
    template <typename T>
    void
    add(const T& value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (unsigned char byte : bytes) {
            hash_ = (hash_ ^ byte) * 0x100000001b3ULL;
        }
    }

    void
    add_series(const metrics::TimeSeries& series)
    {
        add(series.size());
        for (const auto& sample : series.samples()) {
            add(sample.time);
            add(sample.value);
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void
add_results(Digest& digest, const core::ExperimentResults& results)
{
    digest.add(results.makespan);
    digest.add(results.tasks.size());
    for (const core::TaskOutcome& task : results.tasks) {
        digest.add(task.session);
        digest.add(task.seq);
        digest.add(task.is_gpu);
        digest.add(task.gpus);
        digest.add(task.submit);
        digest.add(task.exec_start);
        digest.add(task.exec_end);
        digest.add(task.reply);
        digest.add(task.migrated);
        digest.add(task.aborted);
    }
    const sched::SchedulerStats& s = results.sched_stats;
    for (std::uint64_t counter :
         {s.kernels_created, s.executions_completed, s.executions_aborted,
          s.elections_failed, s.migrations, s.migrations_aborted,
          s.scale_outs, s.scale_ins, s.yield_conversions,
          s.immediate_commits, s.executor_reuses, s.gpu_executions,
          s.prewarm_hits, s.cold_starts, s.replica_failovers}) {
        digest.add(counter);
    }
    const net::NetworkStats& n = results.net_stats;
    for (std::uint64_t counter : {n.sent, n.delivered, n.dropped,
                                  n.dropped_chaos, n.blocked_partition,
                                  n.dead_destination}) {
        digest.add(counter);
    }
    digest.add_series(results.provisioned_gpus);
    digest.add_series(results.committed_gpus);
    digest.add(results.store_bytes_written);
}

/** Minimal JSON object writer (one flat level plus nested raw values). */
class Json
{
  public:
    Json& num(const char* key, double value)
    {
        char buffer[64];
        std::snprintf(buffer, sizeof(buffer), "%.17g", value);
        return raw(key, buffer);
    }

    Json& count(const char* key, std::uint64_t value)
    {
        return raw(key, std::to_string(value));
    }

    Json& str(const char* key, std::string_view value)
    {
        std::string quoted = "\"";
        quoted.append(value);  // names only: no escaping needed
        quoted += '"';
        return raw(key, quoted);
    }

    Json& raw(const char* key, const std::string& value)
    {
        body_ += body_.empty() ? "{" : ", ";
        body_ += '"';
        body_ += key;
        body_ += "\": ";
        body_ += value;
        return *this;
    }

    std::string done() const { return body_.empty() ? "{}" : body_ + "}"; }

  private:
    std::string body_;
};

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/** Parse a base-10 uint64 occupying all of @p text. */
bool
parse_uint(std::string_view text, std::uint64_t& out)
{
    if (text.empty()) {
        return false;
    }
    const auto [end, error] =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return error == std::errc{} && end == text.data() + text.size();
}

/** Write the sorted samples of @p values to @p path as raw doubles, so
 *  run.py can take percentiles over every input of a run together. */
bool
write_samples(const std::string& path, const metrics::Percentiles& values)
{
    const std::vector<double> sorted = values.sorted();
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
        return false;
    }
    const bool written = std::fwrite(sorted.data(), sizeof(double),
                                     sorted.size(), file) == sorted.size();
    return std::fclose(file) == 0 && written;
}

int
usage_error(const std::string& message)
{
    std::fprintf(stderr, "perfbench_worker: %s\n", message.c_str());
    std::fprintf(stderr,
                 "usage: perfbench_worker --workload <name> --seed <n> "
                 "--input <k> ([--samples <path>] [--trace] | "
                 "--setup-sample <count>)\n");
    return 2;
}

/** Set up inputs first..first+count-1 of the run one after another,
 *  without running them, and print the set-up time of each. A set-up of a
 *  few milliseconds varies tenfold with its input (the first session each
 *  stream yields) and with the box's load, so run.py averages over many
 *  inputs set up at several points of the run. */
int
setup_sample(const WorkloadSpec& spec, std::uint64_t seed, std::uint64_t first,
             std::uint64_t count)
{
    std::string times = "[";
    for (std::uint64_t input = first; input < first + count; ++input) {
        const Clock::time_point start = Clock::now();
        const Prepared prepared = spec.prepare(input_seed(seed, input), false);
        const double seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%s%.9g",
                      input == first ? "" : ", ", seconds);
        times += buffer;
    }
    Json out;
    out.str("workload", spec.name).count("seed", seed).raw("setup_s",
                                                           times + "]");
    std::printf("%s\n", out.done().c_str());
    return 0;
}

/** The traced run's per-layer block: the program's counters, the layer
 *  probes sized from this input, and the attribution of run time. */
std::string
layer_report(const Prepared& prepared, const core::RunResponse& response,
             double gen_s, double run_s, double summarize_s,
             const metrics::Percentiles& idelay, Spans& spans)
{
    const core::ExperimentResults& results = response.results;
    const sched::SchedulerConfig& config = prepared.request.config.scheduler;
    const sched::SchedulerStats& s = results.sched_stats;
    const net::NetworkStats& n = results.net_stats;

    double busy_max_s = 0.0, busy_sum_s = 0.0;
    for (double busy : response.shard_busy_seconds) {
        busy_max_s = std::max(busy_max_s, busy);
        busy_sum_s += busy;
    }
    const double busy_mean_s =
        response.shard_busy_seconds.empty()
            ? 0.0
            : busy_sum_s /
                  static_cast<double>(response.shard_busy_seconds.size());

    // Probe shapes: each shard places on its own slice of the peak fleet,
    // at the mean subscription level the run reached; three replicas'
    // timers and endpoints per kernel.
    perfbench::FleetShape fleet;
    fleet.servers = static_cast<std::size_t>(
        std::max<double>(config.initial_servers,
                         results.provisioned_gpus.max_value() /
                             config.server_shape.gpus) /
        config.shards);
    fleet.subscription_ratio =
        results.subscription_ratio.empty()
            ? 1.0
            : std::max(0.1, results.subscription_ratio.mean_over(
                                0, results.makespan));
    const std::uint64_t endpoints = std::clamp<std::uint64_t>(
        3 * s.kernels_created, 16, 100000);

    const int probes = spans.open("probes", -1);
    const double pick_us = perfbench::probe_placement_pick_us(fleet);
    const double totals_ns = perfbench::probe_cluster_totals_ns(fleet);
    const double dispatch_ns = perfbench::probe_sim_dispatch_ns(endpoints);
    const double msg_ns = perfbench::probe_net_msg_ns(endpoints);
    const perfbench::RaftProbe raft = perfbench::probe_raft_commit();
    spans.close(probes);

    // Placement runs once per kernel creation and once per session a
    // rebalance adopts (migrations pick their target with their own scan).
    // A lower bound: a kernel the fleet cannot hold yet is retried on
    // later ticks, and the program counts no such retry. The cluster
    // totals run inside every placement and at every subscription-ratio
    // sample.
    const std::uint64_t placements =
        s.kernels_created + response.sessions_rebalanced;
    const std::uint64_t cluster_calls =
        placements + results.subscription_ratio.size();
    const double placement_est_s = pick_us * 1e-6 * placements;
    const double cluster_est_s = totals_ns * 1e-9 * cluster_calls;
    const double sim_est_s = dispatch_ns * 1e-9 * response.events_executed;
    const double net_est_s = msg_ns * 1e-9 * n.sent;
    // A streamed input is generated inside core::run, a materialized one
    // before it (setup).
    const double gen_in_run_s = prepared.source ? gen_s : 0.0;
    const double serial_s =
        busy_max_s > 0.0 ? run_s - gen_in_run_s - busy_max_s : 0.0;

    Json layers;
    layers.num("workload.gen_s", gen_s)
        .num("core.run_s", run_s)
        .num("core.shard_busy_max_s", busy_max_s)
        .num("core.shard_imbalance",
             busy_mean_s > 0.0 ? busy_max_s / busy_mean_s : 1.0)
        .num("core.serial_s", serial_s)
        .count("core.sessions_rebalanced", response.sessions_rebalanced)
        .count("sim.events", response.events_executed)
        .num("sim.dispatch_ns", dispatch_ns)
        .num("sim.est_s", sim_est_s)
        .count("net.sent", n.sent)
        .count("net.delivered", n.delivered)
        .count("net.dropped", n.dropped)
        .num("net.msg_ns", msg_ns)
        .num("net.est_s", net_est_s)
        .num("raft.commit_us", raft.commit_us)
        .num("raft.msgs_per_commit", raft.msgs_per_commit)
        .count("kernel.syncs", results.sync_ms.count())
        .num("kernel.sync_p99_ms", results.sync_ms.empty()
                                       ? 0.0
                                       : results.sync_ms.percentile(99.0))
        .count("storage.reads", results.read_ms.count())
        .count("storage.writes", results.write_ms.count())
        .count("storage.bytes_written", results.store_bytes_written)
        .count("sched.kernels_created", s.kernels_created)
        .count("sched.migrations", s.migrations)
        .count("sched.migrations_aborted", s.migrations_aborted)
        .count("sched.scale_outs", s.scale_outs)
        .count("sched.scale_ins", s.scale_ins)
        .count("sched.elections_failed", s.elections_failed)
        .num("sched.immediate_commit_ratio",
             ratio(s.immediate_commits, s.gpu_executions))
        .num("sched.executor_reuse_ratio",
             ratio(s.executor_reuses, s.gpu_executions))
        .num("sched.prewarm_hit_ratio", ratio(s.prewarm_hits, s.migrations))
        .num("sched.placement.pick_us", pick_us)
        .count("sched.placement.calls", placements)
        .num("sched.placement.est_s", placement_est_s)
        .count("sched.placement.fleet_servers", fleet.servers)
        .num("cluster.totals_ns", totals_ns)
        .count("cluster.calls", cluster_calls)
        .num("cluster.est_s", cluster_est_s)
        .num("metrics.summarize_s", summarize_s)
        .count("metrics.idelay_samples", idelay.count())
        .num("metrics.idelay_p99_s",
             idelay.empty() ? 0.0 : idelay.percentile(99.0))
        .num("metrics.idelay_p999_s",
             idelay.empty() ? 0.0 : idelay.percentile(99.9))
        .num("trace.unattributed_s", run_s - gen_in_run_s - placement_est_s -
                                         cluster_est_s - sim_est_s -
                                         net_est_s)
        .num("trace.probes_s", spans.seconds(probes));
    return layers.done();
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string workload_name, samples_path;
    std::uint64_t seed = 0, input = 0, sample = 0;
    bool have_seed = false, have_input = false, have_sample = false,
         traced = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--trace") {
            traced = true;
        } else if (arg == "--workload" && i + 1 < argc) {
            workload_name = argv[++i];
        } else if (arg == "--samples" && i + 1 < argc) {
            samples_path = argv[++i];
        } else if ((arg == "--seed" || arg == "--input" ||
                    arg == "--setup-sample") &&
                   i + 1 < argc) {
            const std::string_view value = argv[++i];
            std::uint64_t& out = arg == "--seed"    ? seed
                                 : arg == "--input" ? input
                                                    : sample;
            if (!parse_uint(value, out)) {
                return usage_error("malformed " + std::string(arg.substr(2)) +
                                   " '" + std::string(value) +
                                   "' (want a non-negative integer)");
            }
            (arg == "--seed"    ? have_seed
             : arg == "--input" ? have_input
                                : have_sample) = true;
        } else {
            return usage_error("unexpected argument '" + std::string(arg) +
                               "'");
        }
    }
    const WorkloadSpec* spec = nullptr;
    for (const WorkloadSpec& candidate : kWorkloads) {
        if (workload_name == candidate.name) {
            spec = &candidate;
        }
    }
    if (spec == nullptr) {
        return usage_error("unknown workload '" + workload_name + "'");
    }
    if (!have_seed || !have_input) {
        return usage_error("missing --seed or --input");
    }
    if (have_sample) {
        if (traced || !samples_path.empty()) {
            return usage_error("--setup-sample runs nothing: no --trace or "
                               "--samples");
        }
        return setup_sample(*spec, seed, input, sample);
    }
    if (input >= spec->inputs) {
        return usage_error("input " + std::to_string(input) + " out of range (" +
                           spec->name + " has " +
                           std::to_string(spec->inputs) + ")");
    }

    Spans spans;
    const int root = spans.open("input", -1);
    const int setup = spans.open("workload.setup", root);
    const Prepared prepared =
        spec->prepare(input_seed(seed, input), traced);
    spans.close(setup);

    core::RunResponse response;
    const double cpu_before = cpu_seconds();
    const int run = spans.open("core.run", root);
    try {
        response = core::run(prepared.request);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench_worker: core::run threw: %s\n",
                     error.what());
        return 1;
    }
    spans.close(run);
    const double cpu_run = cpu_seconds() - cpu_before;

    const int summarize = spans.open("metrics.summarize", root);
    const core::ExperimentResults& results = response.results;
    const metrics::Percentiles idelay = results.interactivity_delays_seconds();
    Digest digest;
    add_results(digest, results);
    const double provisioned = results.gpu_hours_provisioned();
    const double committed = results.gpu_hours_committed();
    const std::uint64_t aborted = results.aborted_count();
    const double p50 = idelay.empty() ? 0.0 : idelay.percentile(50.0);
    const double p98 = idelay.empty() ? 0.0 : idelay.percentile(98.0);
    spans.close(summarize);
    if (!samples_path.empty() && !write_samples(samples_path, idelay)) {
        std::fprintf(stderr, "perfbench_worker: cannot write %s\n",
                     samples_path.c_str());
        return 1;
    }
    spans.close(root);

    std::uint64_t sessions = 0, cells = 0;
    double gen_s = spans.seconds(setup);
    if (prepared.source) {
        sessions = prepared.source->sessions();
        cells = prepared.source->cells();
        gen_s = prepared.source->seconds();
    } else {
        sessions = prepared.trace.sessions.size();
        for (const auto& session : prepared.trace.sessions) {
            cells += session.tasks.size();
        }
    }

    char digest_text[32];
    std::snprintf(digest_text, sizeof(digest_text), "\"%016" PRIx64 "\"",
                  digest.value());
    Json out;
    out.str("workload", spec->name)
        .count("seed", seed)
        .count("input", input)
        .count("inputs", spec->inputs)
        .raw("digest", digest_text)
        .count("sessions", sessions)
        .count("cells", cells)
        .count("tasks", results.tasks.size())
        .count("aborted", aborted)
        .num("setup_s", spans.seconds(setup))
        .num("run_s", spans.seconds(run))
        .num("cpu_s", cpu_run)
        .num("peak_rss_mb", peak_rss_mb())
        .num("idelay_p50_s", p50)
        .num("idelay_p98_s", p98)
        .count("idelay_samples", idelay.count())
        .num("gpu_hours", provisioned)
        .num("gpu_hours_committed", committed);
    if (traced) {
        out.raw("layers",
                layer_report(prepared, response, gen_s, spans.seconds(run),
                             spans.seconds(summarize), idelay, spans));
        std::string span_list = "[";
        for (const Span& span : spans.all()) {
            Json one;
            one.str("name", span.name)
                .num("start", span.start)
                .num("end", span.end)
                .raw("parent", std::to_string(span.parent));
            span_list += span_list.size() > 1 ? ", " : "";
            span_list += one.done();
        }
        out.raw("spans", span_list + "]");
    }
    std::printf("%s\n", out.done().c_str());
    return 0;
}
