#include "sim/guard/flight_recorder.hh"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "obs/categories.hh"
#include "obs/trace.hh"
#include "sim/guard/watchdog.hh"

namespace ltp
{
namespace guard
{

namespace
{

constexpr std::size_t maxPath = 512;
constexpr std::size_t tailRecordCount = 256;

// Global recorder state: signal handlers have no argument channel.
// gArmed is the handler's only gate; gPath/gCtx are written under gMu
// strictly before arming and after disarming, so the armed handler
// reads stable values.
std::atomic<bool> gArmed{false};
char gPath[maxPath] = {0};
RecorderContext gCtx;
std::mutex gMu;
std::once_flag gInstallOnce;

/** printf straight to @p fd (no stdio stream, signal-path friendly). */
void
fdPrintf(int fd, const char *fmt, ...)
{
    char buf[2048];
    va_list ap;
    va_start(ap, fmt);
    int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n <= 0)
        return;
    std::size_t len = std::size_t(n) < sizeof(buf) ? std::size_t(n)
                                                   : sizeof(buf) - 1;
    std::size_t off = 0;
    while (off < len) {
        ssize_t w = ::write(fd, buf + off, len - off);
        if (w <= 0)
            return;
        off += std::size_t(w);
    }
}

/** JSON-escape @p in (capped) into @p out; always NUL-terminated. */
void
escapeJson(const char *in, char *out, std::size_t cap)
{
    std::size_t o = 0;
    for (std::size_t i = 0; in && in[i] && o + 8 < cap; ++i) {
        unsigned char c = (unsigned char)in[i];
        if (c == '"' || c == '\\') {
            out[o++] = '\\';
            out[o++] = char(c);
        } else if (c < 0x20) {
            o += std::size_t(std::snprintf(out + o, cap - o, "\\u%04x", c));
        } else {
            out[o++] = char(c);
        }
    }
    out[o] = '\0';
}

const char *
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV: return "SIGSEGV";
      case SIGBUS: return "SIGBUS";
      case SIGFPE: return "SIGFPE";
      case SIGABRT: return "SIGABRT";
    }
    return "signal";
}

/**
 * The dump itself. @p sig is 0 on the clean path. Returns false when
 * the file could not be opened. The crash path runs this on a dying
 * process — every read is best-effort by contract (see header).
 */
bool
writeDump(const char *reason, int sig)
{
    if (!gArmed.load(std::memory_order_acquire))
        return false;
    int fd = ::open(gPath, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;

    char esc[600];
    escapeJson(reason, esc, sizeof(esc));
    fdPrintf(fd, "{\n  \"reason\": \"%s\",\n", esc);
    if (sig) {
        fdPrintf(fd, "  \"signal\": {\"number\": %d, \"name\": \"%s\"},\n",
                 sig, signalName(sig));
    } else {
        fdPrintf(fd, "  \"signal\": null,\n");
    }

    unsigned long long tick = gCtx.tick ? (unsigned long long)gCtx.tick()
                                        : 0;
    unsigned long long events =
        gCtx.events ? (unsigned long long)gCtx.events() : 0;
    fdPrintf(fd,
             "  \"tick\": %llu,\n  \"events\": %llu,\n"
             "  \"rssMb\": %llu,\n",
             tick, events, (unsigned long long)currentRssMb());

    // The profile is read on the clean path only: the crash path may
    // have interrupted the run loop mid-update.
    if (!sig && gCtx.profile) {
        obs::EngineProfile p = gCtx.profile();
        fdPrintf(fd,
                 "  \"profile\": {\"rounds\": %llu, \"windowTicks\": %llu, "
                 "\"overflowMigrations\": %llu},\n",
                 (unsigned long long)p.rounds,
                 (unsigned long long)p.windowTicks,
                 (unsigned long long)p.overflowMigrations);
    } else {
        fdPrintf(fd, "  \"profile\": null,\n");
    }

    fdPrintf(fd, "  \"traceTail\": [");
    const char *sep = "\n    ";
    for (const obs::Tracer::Rec &rec :
         obs::Tracer::instance().tailRecords(tailRecordCount)) {
        char name[160];
        escapeJson(rec.name ? rec.name : "", name, sizeof(name));
        fdPrintf(fd,
                 "%s{\"ts\": %llu, \"dur\": %llu, \"name\": \"%s\", "
                 "\"cat\": \"%s\", \"node\": %lu, "
                 "\"span\": %s, \"a0\": %llu, \"a1\": %llu}",
                 sep, (unsigned long long)rec.ts,
                 (unsigned long long)rec.dur, name,
                 obs::catName(obs::Cat(rec.cat)), (unsigned long)rec.node,
                 rec.span ? "true" : "false",
                 (unsigned long long)rec.a0, (unsigned long long)rec.a1);
        sep = ",\n    ";
    }
    fdPrintf(fd, "\n  ]\n}\n");
    ::close(fd);
    return true;
}

void
crashHandler(int sig)
{
    // SA_RESETHAND restored SIG_DFL on entry; one dump attempt, then
    // re-raise so the default disposition (core, nonzero exit) happens.
    static std::atomic<bool> dumping{false};
    if (!dumping.exchange(true)) {
        char reason[64];
        std::snprintf(reason, sizeof(reason), "crash: %s",
                      signalName(sig));
        writeDump(reason, sig);
    }
    ::raise(sig);
}

void
installHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = crashHandler;
    sa.sa_flags = SA_RESETHAND;
    sigemptyset(&sa.sa_mask);
    for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT})
        ::sigaction(sig, &sa, nullptr);
}

std::string
substitutePid(std::string path)
{
    std::size_t at = path.find("%p");
    if (at != std::string::npos)
        path.replace(at, 2, std::to_string(::getpid()));
    return path;
}

} // namespace

FlightRecorder &
FlightRecorder::instance()
{
    static FlightRecorder recorder;
    return recorder;
}

void
FlightRecorder::arm(const std::string &path, RecorderContext ctx)
{
    std::lock_guard<std::mutex> g(gMu);
    gArmed.store(false, std::memory_order_release);
    std::string resolved = substitutePid(path);
    std::snprintf(gPath, sizeof(gPath), "%s", resolved.c_str());
    gCtx = std::move(ctx);
    std::call_once(gInstallOnce, installHandlers);
    gArmed.store(true, std::memory_order_release);
}

void
FlightRecorder::disarm()
{
    std::lock_guard<std::mutex> g(gMu);
    gArmed.store(false, std::memory_order_release);
    gCtx = RecorderContext{};
}

bool
FlightRecorder::armed() const
{
    return gArmed.load(std::memory_order_acquire);
}

bool
FlightRecorder::dumpNow(const std::string &reason)
{
    std::lock_guard<std::mutex> g(gMu);
    return writeDump(reason.c_str(), 0);
}

std::string
FlightRecorder::resolvedPath() const
{
    std::lock_guard<std::mutex> g(gMu);
    return std::string(gPath);
}

} // namespace guard
} // namespace ltp
