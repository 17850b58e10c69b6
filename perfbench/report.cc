#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

void
Fingerprint::mix(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ull;
    }
}

void
Fingerprint::add(std::string_view key, std::uint64_t value)
{
    mix(key.data(), key.size());
    mix("=", 1);
    mix(&value, sizeof value);
}

void
Fingerprint::add(std::string_view key, double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(key, bits);
}

std::string
Fingerprint::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

namespace {

bool
allIn(std::string_view s, std::string_view extra)
{
    if (s.empty() || s.size() > 64)
        return false;
    for (char c : s) {
        bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                  c == '-' || extra.find(c) != std::string_view::npos;
        if (!ok)
            return false;
    }
    return true;
}

} // namespace

bool
validMetricName(std::string_view name)
{
    return allIn(name, "");
}

bool
validUnit(std::string_view unit)
{
    return unit.size() <= 16 && allIn(unit, "/%");
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics) {
        char num[40];
        // JSON has no NaN/inf; a non-finite value is a benchmark bug
        // and is printed as 0 so the line stays parseable.
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        if (!first)
            s += ", ";
        first = false;
        s += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    s += "}}";
    return s;
}

} // namespace perfbench
