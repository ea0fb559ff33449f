// External merge sort over u64 temp files.
//
// BFS's competitiveness depends on a *sorted* temporary (so the join with
// the B-tree on OID is a merge join). The sorter uses bounded working
// memory: sorted runs of `work_mem_pages` pages, then (work_mem_pages - 1)-way
// merge passes — all I/O through the shared buffer pool, as INGRES would.
#ifndef OBJREP_RELATIONAL_EXTERNAL_SORT_H_
#define OBJREP_RELATIONAL_EXTERNAL_SORT_H_

#include <cstdint>

#include "relational/temp_file.h"
#include "util/status.h"

namespace objrep {

struct SortOptions {
  /// Pages of working memory for run formation / merge fan-in. The
  /// BFS-family strategies sort with this default.
  uint32_t work_mem_pages = 16;
  /// Drop duplicate values while sorting (BFSNODUP's duplicate elimination
  /// step — the paper removes duplicates "before executing the query").
  bool dedup = false;
  /// Free the pages of intermediate runs as soon as a merge pass has
  /// consumed them, so a long workload's temp footprint stays bounded
  /// instead of growing monotonically. Off by default: freeing changes
  /// which dirty pages remain for the end-of-run flush, so the paper
  /// experiments keep the seed's leak-everything behaviour. The caller's
  /// `input` file is never freed.
  bool reclaim_runs = false;
};

/// Sorts `input` into a new temp file `out` (ascending).
Status ExternalSort(BufferPool* pool, const TempFile& input,
                    const SortOptions& options, TempFile* out);

}  // namespace objrep

#endif  // OBJREP_RELATIONAL_EXTERNAL_SORT_H_
