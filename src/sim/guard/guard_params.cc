#include "sim/guard/guard_params.hh"

#include <cstdlib>
#include <stdexcept>

#include "obs/categories.hh"
#include "sim/guard/fault.hh"

namespace ltp
{
namespace guard
{
namespace
{

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v)
        return fallback;
    char *end = nullptr;
    unsigned long long x = std::strtoull(v, &end, 10);
    if (!end || *end != '\0' || *v == '\0' || x == 0) {
        throw std::invalid_argument(std::string(name) +
                                    ": expected a positive integer, got \"" +
                                    v + "\"");
    }
    return x;
}

} // namespace

GuardParams
guardParamsFromEnv()
{
    GuardParams g;
    if (const char *v = std::getenv("LTP_CHECK"))
        g.checkMask = obs::parseCategoryMask(v);
    if (const char *v = std::getenv("LTP_FAULT")) {
        parseFaultSpec(v); // validate now, fail loudly before the run
        g.faultSpec = v;
    }
    g.noProgressMs = envU64("LTP_WATCHDOG_MS", 0);
    g.maxWallMs = envU64("LTP_MAX_WALL_MS", 0);
    g.maxEvents = envU64("LTP_MAX_EVENTS", 0);
    g.maxRssMb = envU64("LTP_MAX_RSS_MB", 0);
    if (const char *v = std::getenv("LTP_FLIGHT_RECORDER"))
        g.flightRecorderFile = v;
    return g;
}

} // namespace guard
} // namespace ltp
