#include "eval/report.h"

#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "util/logging.h"
#include "util/string_utils.h"

namespace pinocchio {

TablePrinter::TablePrinter(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers)) {
  PINO_CHECK(!headers_.empty());
}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  PINO_CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::ostream& out) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    out << "  ";
    for (size_t c = 0; c < row.size(); ++c) {
      out << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    out << "\n";
  };
  out << "\n== " << title_ << " ==\n";
  print_row(headers_);
  size_t rule = 2;
  for (size_t w : widths) rule += w + 2;
  out << "  " << std::string(rule, '-') << "\n";
  for (const auto& row : rows_) print_row(row);
  out.flush();
}

namespace {

// Minimal JSON string escaping (quotes, backslashes, control chars); the
// strings here are bench/algorithm names, so this covers everything legal.
std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatSeconds(double seconds) {
  std::ostringstream os;
  os << std::setprecision(3);
  if (seconds < 1e-3) {
    os << seconds * 1e6 << " us";
  } else if (seconds < 1.0) {
    os << seconds * 1e3 << " ms";
  } else {
    os << seconds << " s";
  }
  return os.str();
}

std::string FormatTimingSplit(double prepare_seconds, double solve_seconds) {
  if (prepare_seconds <= 0.0) return FormatSeconds(solve_seconds);
  return "prep " + FormatSeconds(prepare_seconds) + " + solve " +
         FormatSeconds(solve_seconds);
}

std::string SolverRunJsonLine(const std::string& bench,
                              const std::string& dataset,
                              const std::string& algorithm, size_t objects,
                              size_t candidates, const SolverStats& stats) {
  std::ostringstream os;
  os << std::setprecision(9);
  os << "{\"bench\":\"" << JsonEscape(bench) << "\""
     << ",\"dataset\":\"" << JsonEscape(dataset) << "\""
     << ",\"algorithm\":\"" << JsonEscape(algorithm) << "\""
     << ",\"objects\":" << objects << ",\"candidates\":" << candidates
     << ",\"prepare_seconds\":" << stats.prepare_seconds
     << ",\"solve_seconds\":" << stats.solve_seconds
     << ",\"elapsed_seconds\":" << stats.elapsed_seconds
     << ",\"pairs_pruned_by_ia\":" << stats.pairs_pruned_by_ia
     << ",\"pairs_pruned_by_nib\":" << stats.pairs_pruned_by_nib
     << ",\"pairs_validated\":" << stats.pairs_validated
     << ",\"pairs_refined\":" << stats.pairs_refined
     << ",\"positions_scanned\":" << stats.positions_scanned << "}";
  return os.str();
}

double BenchScaleFromEnv(double default_scale) {
  const char* raw = std::getenv("PINOCCHIO_BENCH_SCALE");
  if (raw == nullptr) return default_scale;
  double value = 0.0;
  if (!ParseDouble(raw, &value) || value <= 0.0 || value > 1.0) {
    PINO_LOG(WARNING) << "ignoring invalid PINOCCHIO_BENCH_SCALE=" << raw;
    return default_scale;
  }
  return value;
}

uint64_t BenchSeedFromEnv(uint64_t default_seed) {
  const char* raw = std::getenv("PINOCCHIO_BENCH_SEED");
  if (raw == nullptr) return default_seed;
  int64_t value = 0;
  if (!ParseInt64(raw, &value) || value < 0) {
    PINO_LOG(WARNING) << "ignoring invalid PINOCCHIO_BENCH_SEED=" << raw;
    return default_seed;
  }
  return static_cast<uint64_t>(value);
}

}  // namespace pinocchio
