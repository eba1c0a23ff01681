#include "taxitrace/mapmatch/gap_filler.h"

namespace taxitrace {
namespace mapmatch {

GapFiller::GapFiller(const roadnet::RoadNetwork* network,
                     GapFillOptions options)
    : router_(network), options_(options) {}

Result<roadnet::Path> GapFiller::Connect(const roadnet::EdgePosition& from,
                                         const roadnet::EdgePosition& to,
                                         RouteCache* cache) const {
  if (cache == nullptr) return router_.ShortestPathBetween(from, to);
  if (const Result<roadnet::Path>* cached = cache->Find(from, to)) {
    return *cached;
  }
  Result<roadnet::Path> path = router_.ShortestPathBetween(from, to);
  if (!path.ok() || IsGap(path->length_m)) cache->Insert(from, to, path);
  return path;
}

bool GapFiller::IsPlausible(double network_length_m,
                            double straight_line_m) const {
  return network_length_m <= options_.detour_factor * straight_line_m +
                                 options_.detour_slack_m;
}

}  // namespace mapmatch
}  // namespace taxitrace
