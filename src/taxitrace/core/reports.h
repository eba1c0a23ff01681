// Plain-text renderings of the paper's tables and figures, their
// comparison with the paper's published values, and the paper-shape
// checks, shared by the examples.

#ifndef TAXITRACE_CORE_REPORTS_H_
#define TAXITRACE_CORE_REPORTS_H_

#include <string>
#include <vector>

#include "taxitrace/analysis/cell_stats.h"
#include "taxitrace/analysis/route_stats.h"
#include "taxitrace/core/pipeline.h"
#include "taxitrace/roadnet/map_preparation.h"

namespace taxitrace {
namespace core {

/// Table 1: junction pairs of the prepared map (first `max_rows` rows).
std::string FormatTable1(const roadnet::RoadNetwork& network,
                         size_t max_rows = 10);

/// Segmentation / cleaning summary (exercises the Table 2 rules).
std::string FormatTable2Report(const clean::CleaningReport& report);

/// Table 3: the per-car transition funnel.
std::string FormatTable3(const std::vector<odselect::Table3Row>& rows);

/// Table 4: per-direction route summaries.
std::string FormatTable4(const std::vector<analysis::Table4Row>& rows);

/// Table 5: cell speed vs traffic lights / bus stops.
std::string FormatTable5(const analysis::Table5& table);

/// The Section VI-A in-text aggregates (point-speed count, seasonal
/// deltas, feature census).
std::string FormatTextAggregates(const StudyResults& results);

/// One paper-shape claim checked against a study run.
struct PaperCheck {
  std::string name;    ///< The claim, e.g. "low% T-S > T-L".
  bool holds = false;  ///< Never true when a compared group is empty.
  std::string detail;  ///< The compared numbers, or the empty group.
};

/// The 13 paper-shape checks of Tables 4-5 and Figs. 5-10, in paper
/// order. Every check is always returned; a check over an empty group
/// (a direction without routes, a stratum without cells) never holds.
std::vector<PaperCheck> PaperChecks(const StudyResults& results);

/// "Check: <name>[: <detail>] -> HOLDS|VIOLATED".
std::string FormatPaperCheck(const PaperCheck& check);

/// One file of the paper reproduction.
struct PaperArtefact {
  std::string name;     ///< File name, e.g. "fig7_qqplot.csv".
  std::string content;
};

/// Every file of the reproduction, each rendered once, in write order.
/// First "tables.txt", the whole reproduction as text: Tables 1-5 and
/// Figs. 3-10, each with the paper's reference values (Figs. 3, 7, 8
/// and 10 preview their CSVs below), the Section VI-A aggregates, and
/// the PaperChecks() lines. Then the figure CSV/GeoJSON series and the
/// map exports.
std::vector<PaperArtefact> PaperArtefacts(const StudyResults& results);

/// A compact JSON digest of a study run: every funnel count plus the
/// key model doubles rounded through "%.9g" (stable across platforms
/// and compilers, unlike full-precision prints). The golden regression
/// test compares this digest against tests/golden/study_small.json;
/// regenerate that file intentionally with scripts/update_golden.py.
std::string StudyDigestJson(const StudyResults& results);

}  // namespace core
}  // namespace taxitrace

#endif  // TAXITRACE_CORE_REPORTS_H_
