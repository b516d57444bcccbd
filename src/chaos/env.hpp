/**
 * @file
 * `NBOS_CHAOS_*` environment knobs, so benches and CI can steer the chaos
 * tier without recompiling:
 *
 *   NBOS_CHAOS_SEED=<u64>     override the generator seed
 *   NBOS_CHAOS_RATE=<double>  scale every fault-class rate (finite, >= 0)
 *   NBOS_CHAOS_RECORD=<path>  RECORD: write the injected schedule here
 *   NBOS_CHAOS_REPLAY=<path>  REPLAY: re-execute this schedule file
 *
 * An unset or empty variable keeps its default. A malformed seed or rate
 * is an error naming the variable and the value, never a silent default:
 * a typo must not pass as a run at the default chaos settings.
 */
#ifndef NBOS_CHAOS_ENV_HPP
#define NBOS_CHAOS_ENV_HPP

#include <cstdint>
#include <string>

namespace nbos::chaos {

struct EnvKnobs
{
    std::uint64_t seed = 0;   ///< 0 = unset
    double rate_scale = 1.0;  ///< multiplier on every fault-class rate
    std::string record_path;  ///< empty = no RECORD file
    std::string replay_path;  ///< empty = no REPLAY file
};

/** Raw values of the NBOS_CHAOS_* variables (null = unset), captured as a
 *  struct so parsing is a pure, testable function of its inputs. */
struct ChaosEnv
{
    const char* seed = nullptr;    ///< NBOS_CHAOS_SEED
    const char* rate = nullptr;    ///< NBOS_CHAOS_RATE
    const char* record = nullptr;  ///< NBOS_CHAOS_RECORD
    const char* replay = nullptr;  ///< NBOS_CHAOS_REPLAY

    static ChaosEnv capture();
};

/**
 * Parse @p env into knobs. Pure (no process state).
 * @throws std::invalid_argument naming the variable and the value when the
 *         seed is not a decimal u64 or the rate is not a finite number >= 0.
 */
EnvKnobs parse_env_knobs(const ChaosEnv& env);

/** parse_env_knobs() over the process environment. */
EnvKnobs read_env_knobs();

}  // namespace nbos::chaos

#endif  // NBOS_CHAOS_ENV_HPP
