#include "chaos/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace nbos::chaos {

namespace {

bool
given(const char* value)
{
    return value != nullptr && value[0] != '\0';
}

[[noreturn]] void
reject(const char* name, const char* value, const char* expected)
{
    throw std::invalid_argument(std::string(name) + "='" + value +
                                "' is not " + expected);
}

}  // namespace

ChaosEnv
ChaosEnv::capture()
{
    ChaosEnv env;
    env.seed = std::getenv("NBOS_CHAOS_SEED");
    env.rate = std::getenv("NBOS_CHAOS_RATE");
    env.record = std::getenv("NBOS_CHAOS_RECORD");
    env.replay = std::getenv("NBOS_CHAOS_REPLAY");
    return env;
}

EnvKnobs
parse_env_knobs(const ChaosEnv& env)
{
    EnvKnobs knobs;
    if (given(env.seed)) {
        // strtoull skips blanks and negates a leading '-', so demand a
        // digit first.
        char* end = nullptr;
        errno = 0;
        const unsigned long long seed = std::strtoull(env.seed, &end, 10);
        if (env.seed[0] < '0' || env.seed[0] > '9' || *end != '\0' ||
            errno == ERANGE) {
            reject("NBOS_CHAOS_SEED", env.seed,
                   "a decimal integer in [0, 2^64)");
        }
        knobs.seed = seed;
    }
    if (given(env.rate)) {
        char* end = nullptr;
        errno = 0;
        const double scale = std::strtod(env.rate, &end);
        if (end == env.rate || *end != '\0' || errno == ERANGE ||
            !std::isfinite(scale) || !(scale >= 0.0)) {
            reject("NBOS_CHAOS_RATE", env.rate, "a finite number >= 0");
        }
        knobs.rate_scale = scale;
    }
    if (env.record != nullptr) {
        knobs.record_path = env.record;
    }
    if (env.replay != nullptr) {
        knobs.replay_path = env.replay;
    }
    return knobs;
}

EnvKnobs
read_env_knobs()
{
    return parse_env_knobs(ChaosEnv::capture());
}

}  // namespace nbos::chaos
