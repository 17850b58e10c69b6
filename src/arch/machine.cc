#include "arch/machine.h"

#include <algorithm>
#include <limits>

#include "sim/compiler.h"
#include "sim/log.h"

namespace svtsim {

namespace {

/** Sentinel for "no trace span was opened for this scope". */
constexpr std::size_t noTraceSpan =
    std::numeric_limits<std::size_t>::max();

} // namespace

Machine::Machine(MachineTopology topo, CostModel costs,
                 std::uint64_t seed)
    : topo_(topo), costs_(costs), rng_(seed), seed_(seed)
{
    if (topo_.numaNodes < 1 || topo_.coresPerNode < 1 ||
        topo_.threadsPerCore < 1) {
        fatal("Machine topology must have at least one of everything");
    }
    int id = 0;
    for (int node = 0; node < topo_.numaNodes; ++node) {
        for (int c = 0; c < topo_.coresPerNode; ++c) {
            cores_.push_back(std::make_unique<SmtCore>(
                eq_, costs_, id++, topo_.threadsPerCore, node,
                SmtCore::defaultPrfSize, &metrics_));
        }
    }
}

SmtCore &
Machine::core(int i)
{
    if (i < 0 || i >= numCores())
        panic("Machine::core index %d out of range", i);
    return *cores_[static_cast<std::size_t>(i)];
}

void
Machine::consume(Ticks t)
{
    if (SVTSIM_UNLIKELY(t < 0))
        panic("Machine::consume negative time");
    if (t == 0)
        return;
    for (const OpenScope &open : openScopes_)
        scopeTicks_[open.id] += t;
    if (TraceSink *sink = eq_.traceSink(); SVTSIM_UNLIKELY(sink != nullptr))
        sink->attribute(t);
    eq_.advanceBy(t);
}

void
Machine::idleUntil(Ticks when)
{
    // idleTo() may return early under a cluster AdvanceGate (with
    // now() < when), so idle time is attributed from the actual
    // distance advanced, keeping the trace conservation check exact.
    const Ticks before = now();
    eq_.idleTo(when);
    if (TraceSink *sink = eq_.traceSink(); SVTSIM_UNLIKELY(sink != nullptr))
        sink->attributeIdle(now() - before);
}

ScopeId
Machine::internScope(const std::string &name, TraceCategory category)
{
    for (ScopeId id = 0; id < scopes_.size(); ++id) {
        if (scopes_[id].name != name)
            continue;
        if (scopes_[id].category != category)
            panic("Machine::internScope: scope '%s' re-interned as %s "
                  "(was %s)",
                  name.c_str(), traceCategoryName(category),
                  traceCategoryName(scopes_[id].category));
        return id;
    }
    scopes_.push_back(ScopeInfo{name, category});
    scopeTicks_.push_back(0);
    return static_cast<ScopeId>(scopes_.size() - 1);
}

void
Machine::pushScope(ScopeId id)
{
    if (SVTSIM_UNLIKELY(id >= scopes_.size()))
        panic("Machine::pushScope of unknown scope id %u", id);
    TraceSink *sink = eq_.traceSink();
    const ScopeInfo &scope = scopes_[id];
    openScopes_.push_back(OpenScope{
        id, SVTSIM_UNLIKELY(sink && sink->enabled())
                ? sink->beginSpan(scope.category, scope.name)
                : noTraceSpan});
}

void
Machine::popScope()
{
    if (openScopes_.empty())
        panic("Machine::popScope with no open scope");
    if (openScopes_.back().span != noTraceSpan) {
        if (TraceSink *sink = eq_.traceSink())
            sink->endSpan(openScopes_.back().span);
    }
    openScopes_.pop_back();
}

Ticks
Machine::scopeTotal(const std::string &name) const
{
    for (ScopeId id = 0; id < scopes_.size(); ++id)
        if (scopes_[id].name == name)
            return scopeTicks_[id];
    return 0;
}

void
Machine::resetAttribution()
{
    std::fill(scopeTicks_.begin(), scopeTicks_.end(), 0);
}

std::uint64_t
Machine::counter(const std::string &key) const
{
    return metrics_.counterValue(key);
}

void
Machine::installFaultPlan(const FaultPlan &plan)
{
    faults_ = std::make_unique<FaultInjector>(plan, seed_);
    for (std::size_t i = 0; i < numFaultSites; ++i) {
        faultMetric_[i] = metrics_.counter(
            MetricScope::Machine, "fault",
            std::string("fault.injected.") +
                faultSiteName(static_cast<FaultSite>(i)));
    }
    faults_->setOnInject([this](FaultSite site) {
        faultMetric_[static_cast<std::size_t>(site)].inc();
        if (TraceSink *sink = eq_.traceSink()) {
            sink->instant(TraceCategory::Sim,
                          std::string("fault.") + faultSiteName(site));
        }
    });
    eq_.setFaultInjector(faults_.get());
}

MetricsSnapshot
Machine::snapshotMetrics() const
{
    MetricsSnapshot snap = metrics_.snapshot();
    for (ScopeId id = 0; id < scopes_.size(); ++id) {
        if (scopeTicks_[id] != 0)
            snap.scopes.emplace_back(scopes_[id].name, scopeTicks_[id]);
    }
    std::sort(snap.scopes.begin(), snap.scopes.end());
    return snap;
}

} // namespace svtsim
