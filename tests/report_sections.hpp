// Report JSON sections for the parity tests: the "attribution" object (the
// rollup fold) and the trace sections from "calibration" on (calibration,
// node_usage, switch_timeline, then health/profile when present), cut out
// of write_report_json's fixed-key-order output.
#pragma once

#include <sstream>
#include <string>

#include "src/obs/report.hpp"

namespace paldia::obs::test {

inline std::string report_json(const AnalysisReport& report) {
  std::ostringstream out;
  write_report_json(out, {report});
  return out.str();
}

/// `"attribution":{...}` of the report's single run.
inline std::string attribution_json(const AnalysisReport& report) {
  const std::string json = report_json(report);
  const std::size_t begin = json.find("\"attribution\":");
  const std::size_t end = json.find(",\"calibration\":");
  return begin == std::string::npos || end == std::string::npos
             ? std::string()
             : json.substr(begin, end - begin);
}

/// Everything from `"calibration":` to the end of the report.
inline std::string trace_sections_json(const AnalysisReport& report) {
  const std::string json = report_json(report);
  const std::size_t begin = json.find("\"calibration\":");
  return begin == std::string::npos ? std::string() : json.substr(begin);
}

}  // namespace paldia::obs::test
