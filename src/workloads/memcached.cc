#include "workloads/memcached.h"

#include <algorithm>

namespace svtsim {

std::uint32_t
EtcWorkload::sampleValueSize(Rng &rng) const
{
    double v = rng.generalizedPareto(valueLocation, valueScale,
                                     valueShape);
    auto bytes = static_cast<std::uint32_t>(std::max(1.0, v));
    return std::min(bytes, valueCap);
}

std::uint32_t
EtcWorkload::sampleKeySize(Rng &rng) const
{
    return keyMin + static_cast<std::uint32_t>(
                        rng.below(keyMax - keyMin + 1));
}

} // namespace svtsim
