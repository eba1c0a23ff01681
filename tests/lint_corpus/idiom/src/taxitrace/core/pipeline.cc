// The study pipeline is the one place that builds a spatial index:
// one-spatial-index must not fire here.

namespace taxitrace {

void RunStudy(const roadnet::RoadNetwork& net) {
  const roadnet::SpatialIndex index(&net);
  MatchEverything(index);
}

}  // namespace taxitrace
