// Test-side packing of per-row fixtures into the one contiguous layout
// every upload API takes.
//
// Production rounds hand aggregators, the second stage, attacks and the
// server a RowSpan over the round's fl::UploadArena. Tests write their
// fixtures as one std::vector<float> per row for readability; PackArena
// copies such rows into a fresh arena whose span() is what the API
// under test sees. Span consumers may zero rows in place (the sanitize
// pass, dpbr's first stage), so a test that reuses its rows packs a new
// arena for every call.

#ifndef DPBR_TESTS_SUPPORT_PACK_ARENA_H_
#define DPBR_TESTS_SUPPORT_PACK_ARENA_H_

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "fl/upload.h"

namespace dpbr {
namespace testutil {

/// Copies `rows` (all of one length) into a fresh arena, row i to
/// arena row i. No rows packs to an empty arena, whose span() every
/// consumer rejects as "no uploads".
inline fl::UploadArena PackArena(const std::vector<std::vector<float>>& rows) {
  size_t dim = rows.empty() ? 0 : rows[0].size();
  fl::UploadArena arena;
  arena.Reset(rows.size(), dim);
  for (size_t i = 0; i < rows.size(); ++i) {
    DPBR_CHECK_EQ(rows[i].size(), dim);
    std::copy(rows[i].begin(), rows[i].end(), arena.Row(i));
  }
  return arena;
}

}  // namespace testutil
}  // namespace dpbr

#endif  // DPBR_TESTS_SUPPORT_PACK_ARENA_H_
