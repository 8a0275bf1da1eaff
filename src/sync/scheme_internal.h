// Internal factory seams between sync_scheme.cc and the per-scheme
// translation units. Not installed; include sync_scheme.h instead.

#ifndef CORM_SYNC_SCHEME_INTERNAL_H_
#define CORM_SYNC_SCHEME_INTERNAL_H_

#include <memory>

#include "sync/sync_scheme.h"

namespace corm::sync::internal {

std::unique_ptr<RemoteSyncScheme> MakeOptimisticScheme(
    SyncMedium* medium, const LockTableCoords& table,
    const SchemeOptions& options, uint16_t owner_id);

std::unique_ptr<RemoteSyncScheme> MakeCasSpinlockScheme(
    SyncMedium* medium, const LockTableCoords& table,
    const SchemeOptions& options, uint16_t owner_id);

}  // namespace corm::sync::internal

#endif  // CORM_SYNC_SCHEME_INTERNAL_H_
