#include "taxitrace/mapmatch/gap_filler.h"

namespace taxitrace {
namespace mapmatch {

GapFiller::GapFiller(const roadnet::RoadNetwork* network,
                     GapFillOptions options)
    : router_(network), options_(options) {}

Status GapFiller::Connect(const roadnet::EdgePosition& from,
                          const roadnet::EdgePosition& to, RouteCache* cache,
                          roadnet::Path* out) const {
  if (cache == nullptr) return router_.ShortestPathBetween(from, to, out);
  if (const Result<roadnet::Path>* cached = cache->Find(from, to)) {
    if (cached->ok()) {
      *out = **cached;
      return Status::OK();
    }
    out->Clear();
    return cached->status();
  }
  const Status status = router_.ShortestPathBetween(from, to, out);
  if (!status.ok()) {
    cache->Insert(from, to, status);
  } else if (IsGap(out->length_m)) {
    cache->Insert(from, to, *out);
  }
  return status;
}

Result<roadnet::Path> GapFiller::Connect(const roadnet::EdgePosition& from,
                                         const roadnet::EdgePosition& to,
                                         RouteCache* cache) const {
  roadnet::Path path;
  TAXITRACE_RETURN_IF_ERROR(Connect(from, to, cache, &path));
  return path;
}

bool GapFiller::IsPlausible(double network_length_m,
                            double straight_line_m) const {
  return network_length_m <= options_.detour_factor * straight_line_m +
                                 options_.detour_slack_m;
}

}  // namespace mapmatch
}  // namespace taxitrace
