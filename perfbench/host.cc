#include "host.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

namespace perfbench {

namespace {

double
seconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
toSec(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

} // namespace

std::uint64_t
wallNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

double
wallSec()
{
    return seconds(CLOCK_MONOTONIC);
}

double
threadCpuSec()
{
    return seconds(CLOCK_THREAD_CPUTIME_ID);
}

Usage
processUsage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpuSec = toSec(ru.ru_utime) + toSec(ru.ru_stime);
    u.voluntaryCsw = ru.ru_nvcsw;
    u.involuntaryCsw = ru.ru_nivcsw;
    return u;
}

long
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    return 0;
}

std::uint64_t
stealTicks()
{
    std::ifstream in("/proc/stat");
    std::string line;
    if (!std::getline(in, line))
        return 0;
    // cpu user nice system idle iowait irq softirq steal ...
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    std::uint64_t v = 0;
    for (int i = 0; i < 8 && fields >> v; ++i) {
    }
    return tag == "cpu" ? v : 0;
}

int
onlineCpus()
{
    return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

int
pinToLastCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return -1;
    for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
        if (!CPU_ISSET(c, &allowed))
            continue;
        cpu_set_t pin;
        CPU_ZERO(&pin);
        CPU_SET(c, &pin);
        return sched_setaffinity(0, sizeof pin, &pin) == 0 ? c : -1;
    }
    return -1;
}

} // namespace perfbench
