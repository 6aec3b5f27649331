#ifndef EASEML_SHARD_SHARDED_SELECTOR_H_
#define EASEML_SHARD_SHARDED_SELECTOR_H_

#include <memory>
#include <utility>

#include "common/status.h"
#include "core/multi_tenant_selector.h"

namespace easeml::shard {

/// Builds the one selector engine on the heap: `MultiTenantSelector::Create`
/// moved into a `unique_ptr`, with the same validation (InvalidArgument
/// unless `options.num_shards == 1`).
///
/// Kept only because the end-to-end benchmark (perfbench/, which changes
/// only together with the benchmark definition) calls it; the next
/// benchmark change removes this header. Everything else builds through
/// `MultiTenantSelector::Create`.
inline Result<std::unique_ptr<core::MultiTenantSelector>> MakeSelector(
    const core::SelectorOptions& options) {
  EASEML_ASSIGN_OR_RETURN(core::MultiTenantSelector selector,
                          core::MultiTenantSelector::Create(options));
  return std::make_unique<core::MultiTenantSelector>(std::move(selector));
}

}  // namespace easeml::shard

#endif  // EASEML_SHARD_SHARDED_SELECTOR_H_
