#include "api/engine.hpp"

#include "api/route_service.hpp"
#include "graph/families.hpp"
#include "graph/graph_io.hpp"
#include "graph/oracle_factory.hpp"

namespace nav::api {

NavigationEngine::NavigationEngine(graph::Graph g, EngineOptions options)
    : graph_(std::make_unique<graph::Graph>(std::move(g))) {
  NAV_REQUIRE(graph_->num_nodes() >= 2, "engine needs a routable graph");
  graph::OracleConfig config;
  config.dense_limit = options.dense_oracle_limit;
  config.cache_slots = options.cache_capacity;
  oracle_ = graph::make_oracle(options.oracle_spec, *graph_, config);
  router_ = routing::make_router(router_spec_, *graph_, *oracle_);
}

NavigationEngine NavigationEngine::from_family(const std::string& family,
                                               graph::NodeId n,
                                               std::uint64_t graph_seed,
                                               EngineOptions options) {
  Rng rng(graph_seed);
  return NavigationEngine(graph::family(family).make(n, rng), options);
}

NavigationEngine NavigationEngine::from_file(const std::string& path,
                                             EngineOptions options) {
  return NavigationEngine(graph::load_graph(path), options);
}

NavigationEngine NavigationEngine::load_graph(const std::string& spec,
                                              EngineOptions options) {
  const std::string resolved =
      graph::is_graph_spec(spec) ? spec : "file:" + spec;
  Rng rng(0);  // file sources ignore both arguments of make
  return NavigationEngine(graph::graph_source(resolved).make(0, rng), options);
}

NavigationEngine& NavigationEngine::use_scheme(const std::string& spec,
                                               std::uint64_t scheme_seed) {
  Rng rng(scheme_seed);
  scheme_ = core::make_scheme(spec, *graph_, rng);
  scheme_spec_ = spec;
  return *this;
}

NavigationEngine& NavigationEngine::use_scheme(core::SchemePtr scheme) {
  if (scheme != nullptr) {
    NAV_REQUIRE(scheme->num_nodes() == graph_->num_nodes(),
                "scheme/graph size mismatch");
  }
  scheme_ = std::move(scheme);
  scheme_spec_ = scheme_ ? scheme_->name() : "none";
  return *this;
}

NavigationEngine& NavigationEngine::use_router(const std::string& spec) {
  router_ = routing::make_router(spec, *graph_, *oracle_);
  router_spec_ = spec;
  return *this;
}

routing::RouteResult NavigationEngine::route(graph::NodeId s, graph::NodeId t,
                                             Rng rng,
                                             bool record_trace) const {
  return router_->route(s, t, scheme_.get(), rng, record_trace);
}

std::vector<routing::RouteResult> NavigationEngine::route_many(
    std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs, Rng rng,
    bool parallel) const {
  RouteServiceOptions options;
  options.parallel = parallel;
  return RouteService(*this, options).route_batch(pairs, rng);
}

routing::GreedyDiameterEstimate NavigationEngine::estimate_diameter(
    const routing::TrialConfig& config, Rng rng) const {
  return RouteService(*this).estimate_diameter(config, rng);
}

workload::WorkloadPtr NavigationEngine::make_workload(
    const std::string& spec, std::uint64_t seed) const {
  return workload::make_workload(spec, *graph_, Rng(seed));
}

}  // namespace nav::api
