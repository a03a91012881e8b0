#include "network/network_model.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "network/fabric.hpp"
#include "network/flit_engine.hpp"

namespace irmc {

const char* ToString(EngineKind kind) {
  switch (kind) {
    case EngineKind::kVct: return "vct";
    case EngineKind::kFlit: return "flit";
  }
  return "?";
}

bool EngineKindFromString(const std::string& name, EngineKind* out) {
  for (EngineKind k : {EngineKind::kVct, EngineKind::kFlit}) {
    if (name == ToString(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

double NetworkModel::MaxLinkUtilization(Cycles now) const {
  double best = 0.0;
  for (const LinkLoadReport& r : LinkReports(now))
    if (r.sw != kInvalidSwitch && !r.to_host)
      best = std::max(best, r.utilization);
  return best;
}

std::unique_ptr<NetworkModel> MakeNetworkModel(
    EngineKind kind, Engine& engine, const System& sys,
    const NetParams& params, NetworkModel::DeliverFn deliver,
    MetricsRegistry& metrics, Tracer* tracer) {
  switch (kind) {
    case EngineKind::kVct:
      return std::make_unique<Fabric>(engine, sys, params, std::move(deliver),
                                      metrics, tracer);
    case EngineKind::kFlit:
      return std::make_unique<FlitEngine>(engine, sys, params,
                                          std::move(deliver), metrics, tracer);
  }
  IRMC_ENSURE(false && "unknown engine kind");
  return nullptr;
}

}  // namespace irmc
