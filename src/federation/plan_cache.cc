#include "federation/plan_cache.h"

#include "obs/metrics.h"
#include "sparql/parser.h"

namespace alex::fed {

Status CheckFederatedSubset(const sparql::SelectQuery& query) {
  if (!query.optionals.empty() || !query.union_branches.empty()) {
    return Status::InvalidArgument(
        "OPTIONAL/UNION are not supported in federated queries");
  }
  if (query.aggregate.has_value()) {
    return Status::InvalidArgument("projected variable ?" +
                                   query.aggregate->alias +
                                   " not mentioned in WHERE");
  }
  return Status::OK();
}

Result<CompiledQuery> CompileFederated(const sparql::SelectQuery& query) {
  static obs::Histogram& compile_seconds =
      obs::MetricsRegistry::Global().histogram("fed.plan_compile_seconds");
  obs::ScopedTimer timer(compile_seconds);
  ALEX_RETURN_NOT_OK(CheckFederatedSubset(query));
  return CompiledQuery::Compile(query);
}

Result<std::shared_ptr<const CompiledQuery>> PlanCache::GetOrCompile(
    std::string_view query_text) {
  static obs::Counter& hits =
      obs::MetricsRegistry::Global().counter("fed.plan_cache_hits");
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(std::string(query_text));
    if (it != plans_.end()) {
      hits.Add(1);
      return it->second;
    }
  }
  // Compile outside the lock: compilation is the expensive part, and two
  // threads racing on the same new text just produce identical plans (the
  // second insert is a no-op).
  Result<sparql::SelectQuery> query = sparql::ParseQuery(query_text);
  if (!query.ok()) return query.status();
  Result<CompiledQuery> compiled = CompileFederated(*query);
  if (!compiled.ok()) return compiled.status();
  auto shared =
      std::make_shared<const CompiledQuery>(std::move(compiled).value());
  std::lock_guard<std::mutex> lock(mu_);
  if (plans_.size() >= max_entries_) plans_.clear();
  auto [it, inserted] = plans_.emplace(std::string(query_text), shared);
  return it->second;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

}  // namespace alex::fed
