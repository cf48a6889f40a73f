#ifndef ALEX_FEDERATION_PLAN_CACHE_H_
#define ALEX_FEDERATION_PLAN_CACHE_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/result.h"
#include "sparql/ast.h"
#include "sparql/plan.h"

namespace alex::fed {

/// Federated queries run as the same compiled plan as single-dataset ones.
using sparql::CompiledQuery;

/// The federated subset: no OPTIONAL, UNION or COUNT. Fails with the same
/// InvalidArgument an unsupported query has always received (a COUNT alias
/// is reported as an unmentioned projected variable).
Status CheckFederatedSubset(const sparql::SelectQuery& query);

/// CheckFederatedSubset, then CompiledQuery::Compile; the compile time lands
/// in the fed.plan_compile_seconds histogram.
Result<CompiledQuery> CompileFederated(const sparql::SelectQuery& query);

/// Thread-safe memo of query text -> compiled plan, so a workload that
/// replays the same query strings (the simulation workloads, the benches,
/// any caller routing traffic through ExecuteText) compiles each distinct
/// query exactly once.
///
/// Metrics: fed.plan_cache_hits counts memo hits; compile time lands in the
/// fed.plan_compile_seconds histogram (recorded by CompileFederated).
class PlanCache {
 public:
  /// `max_entries` bounds the memo; on overflow the whole memo is dropped
  /// (workloads have a bounded set of distinct query strings, so this is a
  /// safety valve, not a tuning knob).
  explicit PlanCache(size_t max_entries = 4096) : max_entries_(max_entries) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for `query_text`, compiling (and caching) on
  /// first sight. Parse errors and queries outside the federated subset are
  /// returned and never cached.
  Result<std::shared_ptr<const CompiledQuery>> GetOrCompile(
      std::string_view query_text);

  size_t size() const;

 private:
  mutable std::mutex mu_;
  size_t max_entries_;
  std::unordered_map<std::string, std::shared_ptr<const CompiledQuery>>
      plans_;
};

}  // namespace alex::fed

#endif  // ALEX_FEDERATION_PLAN_CACHE_H_
