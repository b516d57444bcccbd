/**
 * @file
 * Tests for the unified engine-run API (core/engine_api.hpp): request
 * validation, exact legacy error strings, the adapter equivalences
 * (Platform::run / ExperimentRunner / the streamed drivers all produce
 * byte-identical results through core::run), and the per-run override
 * fields.
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/engine_api.hpp"
#include "core/protosim.hpp"
#include "core/sharded_fastsim.hpp"
#include "harness.hpp"
#include "workload/session_source.hpp"

namespace nbos::core {
namespace {

/** Run @p request and return the what() of the expected throw. */
std::string
run_error(const RunRequest& request)
{
    try {
        run(request);
    } catch (const std::invalid_argument& error) {
        return error.what();
    }
    ADD_FAILURE() << "core::run did not throw";
    return {};
}

TEST(RunRequestValidationTest, RequiresExactlyOneInput)
{
    const auto trace = test::tiny_trace();
    workload::TraceSessionSource source(trace);

    RunRequest neither;
    EXPECT_EQ(run_error(neither),
              "RunRequest: set exactly one of trace and source");

    RunRequest both;
    both.trace = &trace;
    both.source = &source;
    EXPECT_EQ(run_error(both),
              "RunRequest: set exactly one of trace and source");
}

TEST(RunRequestValidationTest, ModeMustMatchTheInputKind)
{
    const auto trace = test::tiny_trace();
    workload::TraceSessionSource source(trace);

    RunRequest streamed_without_source;
    streamed_without_source.trace = &trace;
    streamed_without_source.mode = RunMode::kStreamed;
    EXPECT_EQ(run_error(streamed_without_source),
              "RunRequest: streamed mode requires a SessionSource");

    RunRequest materialized_without_trace;
    materialized_without_trace.source = &source;
    materialized_without_trace.mode = RunMode::kMaterialized;
    EXPECT_EQ(run_error(materialized_without_trace),
              "RunRequest: materialized mode requires a trace");
}

TEST(RunRequestValidationTest, UnknownEngineKeepsTheLegacyMessage)
{
    const auto trace = test::tiny_trace();
    RunRequest request;
    request.engine = "no-such-engine";
    request.trace = &trace;
    // The exact string the ExperimentRunner has always surfaced.
    EXPECT_EQ(run_error(request), "unknown engine 'no-such-engine'");
}

TEST(RunRequestValidationTest, InvalidConfigKeepsThePlatformMessage)
{
    const auto trace = test::tiny_trace();
    RunRequest request;
    request.trace = &trace;
    request.config = test::platform_config(Policy::kReservation);
    request.config.fast_mode = true;  // baselines have no fast engine
    const std::string error = run_error(request);
    EXPECT_EQ(error.rfind("PlatformConfig: ", 0), 0u) << error;

    // The same inconsistency through a *named* engine is repaired from
    // the engine (runner semantics), so it runs instead of throwing.
    request.engine = kEngineReservation;
    EXPECT_NO_THROW(run(request));
}

/** A non-positive autoscale interval would re-arm the autoscaler tick at
 *  the same instant forever and stall every window grid on it. It is a
 *  named config error, raised before any engine starts, for both
 *  NotebookOS engines and both input kinds. */
TEST(RunRequestValidationTest, NonPositiveAutoscaleIntervalIsRejected)
{
    const auto trace = test::tiny_trace();
    for (const sim::Time interval : {sim::Time{0}, -sim::kSecond}) {
        for (const char* engine : {kEngineFast, kEnginePrototype}) {
            for (const bool streamed : {false, true}) {
                SCOPED_TRACE(std::string(engine) +
                             (streamed ? " streamed" : " materialized"));
                workload::TraceSessionSource source(trace);
                RunRequest request;
                request.engine = engine;
                if (streamed) {
                    request.source = &source;
                } else {
                    request.trace = &trace;
                }
                request.config.scheduler.shards = 2;
                request.config.scheduler.autoscale_interval = interval;
                EXPECT_EQ(run_error(request),
                          "PlatformConfig: scheduler.autoscale_interval "
                          "must be positive");
            }
        }
    }
}

TEST(RunRequestValidationTest, OnlyNotebookEnginesStream)
{
    const auto trace = test::tiny_trace();
    workload::TraceSessionSource source(trace);
    RunRequest request;
    request.engine = kEngineBatch;
    request.source = &source;
    EXPECT_EQ(run_error(request),
              "engine 'batch' has no streamed driver");
}

TEST(RunRequestValidationTest, ChaosOverrideIsValidatedAgainstTheEngine)
{
    const auto trace = test::tiny_trace();
    RunRequest request;
    request.engine = kEngineFast;
    request.trace = &trace;
    chaos::ChaosConfig chaos;
    chaos.enabled = true;
    request.chaos = chaos;
    // chaos + the analytic engine is the config error validate_config
    // already rejects; the override must flow through that check.
    const std::string error = run_error(request);
    EXPECT_EQ(error.rfind("PlatformConfig: ", 0), 0u) << error;
    EXPECT_NE(error.find("chaos"), std::string::npos) << error;
}

TEST(RunApiEquivalenceTest, MatchesPlatformRunForDerivedEngines)
{
    const auto trace = test::tiny_trace();
    for (const bool fast : {false, true}) {
        const PlatformConfig config =
            test::platform_config(Policy::kNotebookOS, 17, fast);
        const ExperimentResults legacy = Platform(config).run(trace);

        RunRequest request;
        request.config = config;
        request.trace = &trace;
        const RunResponse response = run(request);
        test::expect_results_identical(legacy, response.results);
    }
}

TEST(RunApiEquivalenceTest, MatchesTheRunnerPathForNamedEngines)
{
    const auto trace = test::tiny_trace();
    ExperimentSpec spec;
    spec.engine = kEngineLcp;
    spec.trace = &trace;
    spec.config = PlatformConfig::prototype_defaults();
    spec.seed = 29;
    const auto outcomes = ExperimentRunner().run({spec});
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;

    RunRequest request;
    request.engine = kEngineLcp;
    request.trace = &trace;
    request.config = PlatformConfig::prototype_defaults();
    request.seed = 29;
    const RunResponse response = run(request);
    test::expect_results_identical(outcomes[0].results, response.results);
}

TEST(RunApiEquivalenceTest, StreamedFastMatchesTheLegacyEntryPoint)
{
    const auto trace = test::tiny_trace();
    PlatformConfig config =
        test::platform_config(Policy::kNotebookOS, 17, true);
    config.scheduler.shards = 2;
    config.scheduler.routing = sched::RoutingPolicyKind::kRebalance;

    workload::TraceSessionSource legacy_source(trace);
    const StreamedFastRun legacy = run_fast_streamed(legacy_source, config);

    workload::TraceSessionSource source(trace);
    RunRequest request;
    request.engine = kEngineFast;
    request.config = PlatformConfig::prototype_defaults();
    request.config.scheduler.shard_parallel =
        config.scheduler.shard_parallel;
    request.source = &source;
    request.seed = 17;
    request.shards = 2;
    request.routing = sched::RoutingPolicyKind::kRebalance;
    const RunResponse response = run(request);

    test::expect_results_identical(legacy.results, response.results);
    EXPECT_EQ(legacy.events_executed, response.events_executed);
    EXPECT_EQ(legacy.shard_events, response.shard_events);
    EXPECT_EQ(legacy.sessions_rebalanced, response.sessions_rebalanced);
}

TEST(RunApiEquivalenceTest, StreamedPrototypeMatchesTheLegacyEntryPoint)
{
    const auto trace = test::tiny_trace(6);
    PlatformConfig config = test::platform_config(Policy::kNotebookOS, 17);
    config.scheduler.shards = 2;
    config.scheduler.routing = sched::RoutingPolicyKind::kLeastLoaded;

    workload::TraceSessionSource legacy_source(trace);
    const ExperimentResults legacy =
        run_prototype_streamed(legacy_source, config);

    workload::TraceSessionSource source(trace);
    RunRequest request;
    request.config = config;
    request.source = &source;
    request.mode = RunMode::kStreamed;
    const RunResponse response = run(request);

    test::expect_results_identical(legacy, response.results);
    // The prototype driver reports no fast-shard telemetry.
    EXPECT_EQ(response.events_executed, 0u);
    EXPECT_TRUE(response.shard_events.empty());
}

TEST(RunApiEquivalenceTest, SeedOverrideBeatsTheConfigSeed)
{
    const auto trace = test::tiny_trace();

    RunRequest request;
    request.engine = kEngineFast;
    request.trace = &trace;
    request.config = test::platform_config(Policy::kNotebookOS, 999, true);
    request.seed = 17;
    const RunResponse overridden = run(request);

    const ExperimentResults direct = test::run_policy(
        trace, Policy::kNotebookOS, 17, /*fast=*/true);
    test::expect_results_identical(direct, overridden.results);
}

}  // namespace
}  // namespace nbos::core
