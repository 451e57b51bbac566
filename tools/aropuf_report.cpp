// aropuf_report: renders a merged aggregate manifest as a self-contained
// run report — one HTML file (inline CSS, inline SVG charts, no external
// assets, safe to attach as a CI artifact) and a Markdown twin for review
// comments and terminals.
//
// The report derives everything from the aggregate manifest written by
// aropuf_shard; it never re-runs any simulation.  Sections:
//   * headline — per-design uniqueness (vs the paper's 49.67 %), end-of-life
//     flip rates, and the ECC/area comparison from the "study" section;
//   * shard health — per-shard wall time, thread count, kernel backend, and
//     any provenance conflicts the aggregator flagged;
//   * stage timing — the merged per-stage wall/CPU rollup;
//   * distributions — SVG histograms of the merged sample/tally series.
//
// A second mode, --dump PATH, decodes a *shard* manifest of either transport
// (JSON or the ARPB binary container) and prints it as JSON with the series
// values re-embedded — the debugging escape hatch for binary shard files.
//
// Exit codes: 0 success, 1 unreadable manifest or write failure, 2 usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "telemetry/binfmt.hpp"

namespace {

using aropuf::JsonValue;
namespace cli = aropuf::cli;

struct Options {
  std::string manifest_path;
  std::string html_path;
  std::string md_path;
  std::string dump_path;
};

int parse_args(int argc, char** argv, Options* opt) {
  cli::Parser parser("aropuf_report",
                     "renders a merged aggregate manifest as an HTML and/or Markdown report");
  parser
      .opt_string("--manifest", &opt->manifest_path, "PATH",
                  "aggregate manifest to render (required)")
      .opt_string("--html", &opt->html_path, "PATH", "HTML output path")
      .opt_string("--md", &opt->md_path, "PATH", "Markdown output path")
      .opt_string("--dump", &opt->dump_path, "PATH",
                  "decode a shard manifest (JSON or binary) and print it as JSON");
  switch (parser.parse(argc, argv)) {
    case cli::ParseStatus::kHelp:
      std::exit(0);
    case cli::ParseStatus::kError:
      return 2;
    case cli::ParseStatus::kOk:
      break;
  }
  if (!opt->dump_path.empty()) return 0;
  if (opt->manifest_path.empty() || (opt->html_path.empty() && opt->md_path.empty())) {
    std::fprintf(stderr,
                 "aropuf_report: --manifest and at least one of --html / --md are required "
                 "(or --dump PATH)\n");
    parser.print_usage(stderr);
    return 2;
  }
  return 0;
}

/// --dump: shard manifest of either transport → indented JSON on stdout.
/// Binary containers get their packed values re-embedded under
/// results.samples.<name>.values, so the output is exactly what the JSON
/// transport would have written.
int dump_shard_manifest(const std::string& path) {
  try {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) throw std::runtime_error("cannot open file");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = buffer.str();
    JsonValue doc;
    if (aropuf::telemetry::looks_binary(bytes)) {
      doc = aropuf::telemetry::BinaryManifestReader::parse(std::move(bytes)).to_json();
    } else {
      doc = JsonValue::parse(bytes);
    }
    std::printf("%s\n", doc.dump(/*indent=*/2).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aropuf_report: %s: %s\n", path.c_str(), e.what());
    return 1;
  }
}

/// "kept" / "dropped" from a v2 aggregate; v1 documents predate the marker
/// (and never embedded raw values), so they render as "n/a (schema v1)".
std::string raw_series_label(const JsonValue& doc) {
  const std::string marker = doc.string_or("raw_series", "");
  return marker.empty() ? "n/a (schema v1)" : marker;
}

std::string escape_html(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt(double v, int decimals = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// --- headline rows (shared between HTML and Markdown) -----------------------

struct Row {
  std::string metric;
  std::string conventional;
  std::string aro;
  std::string note;
};

std::vector<Row> headline_rows(const JsonValue& doc) {
  std::vector<Row> rows;
  if (!doc.contains("study") || !doc.at("study").is_object()) return rows;
  const JsonValue& study = doc.at("study");
  const auto design = [&](const char* key) -> const JsonValue* {
    if (study.contains("designs") && study.at("designs").contains(key)) {
      return &study.at("designs").at(key);
    }
    return nullptr;
  };
  const JsonValue* conv = design("conventional");
  const JsonValue* aro = design("aro");
  const auto field = [](const JsonValue* d, const char* key, double scale,
                        int decimals) -> std::string {
    if (d == nullptr || !d->contains(key)) return "-";
    return fmt(d->number_or(key, 0.0) * scale, decimals);
  };
  const std::string year = fmt_g(study.number_or("final_year", 0.0));
  rows.push_back({"Uniqueness (%), ideal 50, paper 49.67", field(conv, "uniqueness_percent", 1, 2),
                  field(aro, "uniqueness_percent", 1, 2), "E3 mean pairwise fractional HD"});
  rows.push_back({"Uniqueness stddev (%)", field(conv, "uniqueness_stddev_percent", 1, 2),
                  field(aro, "uniqueness_stddev_percent", 1, 2), ""});
  rows.push_back({"Uniformity (fraction of ones)", field(conv, "uniformity_mean", 1, 4),
                  field(aro, "uniformity_mean", 1, 4), "ideal 0.5"});
  rows.push_back({"Mean flip rate @ " + year + "y (%)", field(conv, "eol_flip_percent_mean", 1, 3),
                  field(aro, "eol_flip_percent_mean", 1, 3), "E2 vs fresh golden response"});
  rows.push_back({"Max chip flip rate @ " + year + "y (%)", field(conv, "eol_flip_percent_max", 1, 3),
                  field(aro, "eol_flip_percent_max", 1, 3), ""});
  rows.push_back({"Provisioning BER p90", field(conv, "eol_ber_p90", 1, 5),
                  field(aro, "eol_ber_p90", 1, 5), "mean + 1.282 sigma, fraction"});

  if (study.contains("ecc") && study.at("ecc").string_or("status", "") == "ok") {
    const JsonValue& ecc = study.at("ecc");
    const auto scheme = [&](const char* key, const char* field_name) -> std::string {
      if (!ecc.contains(key)) return "-";
      const JsonValue& s = ecc.at(key);
      if (std::string(field_name) == "scheme") {
        return "rep" + fmt_g(s.number_or("repetition", 0)) + " + BCH(m=" +
               fmt_g(s.number_or("bch_m", 0)) + ", t=" + fmt_g(s.number_or("bch_t", 0)) + ")";
      }
      return fmt_g(s.number_or(field_name, 0.0));
    };
    rows.push_back({"Min-area ECC scheme", scheme("conventional", "scheme"),
                    scheme("aro", "scheme"), "128-bit key, 1e-6 failure target"});
    rows.push_back({"ECC raw bits", scheme("conventional", "raw_bits"), scheme("aro", "raw_bits"),
                    ""});
    rows.push_back({"ECC total area (GE)", scheme("conventional", "area_ge"),
                    scheme("aro", "area_ge"),
                    "area ratio conv/ARO = " + fmt(ecc.number_or("area_ratio", 0.0), 1) +
                        "x (paper ~24x)"});
  } else if (study.contains("ecc")) {
    rows.push_back({"ECC comparison", "-", "-",
                    "failed: " + study.at("ecc").string_or("error", "unknown")});
  }
  return rows;
}

// --- SVG histogram ----------------------------------------------------------

std::string svg_histogram(const JsonValue& hist, const std::string& title) {
  if (!hist.contains("bins") || !hist.at("bins").is_array()) return "";
  const JsonValue::Array& bins = hist.at("bins").as_array();
  const double lo = hist.number_or("lo", hist.number_or("hist_lo", 0.0));
  const double hi = hist.number_or("hi", hist.number_or("hist_hi", 1.0));
  double peak = 0.0;
  for (const JsonValue& b : bins) {
    if (b.is_number()) peak = std::max(peak, b.as_number());
  }
  const int w = 520;
  const int h = 140;
  const int pad = 24;
  const double bar_w = bins.empty() ? 0.0 : static_cast<double>(w - 2 * pad) / bins.size();
  std::ostringstream svg;
  svg << "<svg viewBox=\"0 0 " << w << ' ' << h << "\" class=\"hist\" role=\"img\" "
      << "aria-label=\"" << escape_html(title) << "\">";
  svg << "<line x1=\"" << pad << "\" y1=\"" << h - pad << "\" x2=\"" << w - pad << "\" y2=\""
      << h - pad << "\" stroke=\"#888\"/>";
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const double v = bins[i].is_number() ? bins[i].as_number() : 0.0;
    const double bh = peak > 0.0 ? (v / peak) * (h - 2 * pad) : 0.0;
    svg << "<rect x=\"" << fmt(pad + i * bar_w, 1) << "\" y=\"" << fmt(h - pad - bh, 1)
        << "\" width=\"" << fmt(std::max(bar_w - 1.0, 0.5), 1) << "\" height=\"" << fmt(bh, 1)
        << "\"><title>[" << fmt_g(lo + (hi - lo) * i / bins.size()) << ", "
        << fmt_g(lo + (hi - lo) * (i + 1) / bins.size()) << "): " << fmt_g(v)
        << "</title></rect>";
  }
  svg << "<text x=\"" << pad << "\" y=\"" << h - 6 << "\">" << fmt_g(lo) << "</text>";
  svg << "<text x=\"" << w - pad << "\" y=\"" << h - 6 << "\" text-anchor=\"end\">" << fmt_g(hi)
      << "</text>";
  svg << "</svg>";
  return svg.str();
}

// --- HTML -------------------------------------------------------------------

/// "Resource profile" section from the aggregate's merged "profile"
/// section (profiling layer, DESIGN.md §11): mode + peak RSS always,
/// counter totals and a per-shard breakdown when the run was profiled.
/// Omitted entirely for aggregates that predate the section.
void emit_resource_profile(std::ostringstream& out, const JsonValue& doc, bool html) {
  if (!doc.contains("profile") || !doc.at("profile").is_object()) return;
  const JsonValue& profile = doc.at("profile");
  const std::string mode = profile.string_or("mode", "off");
  const double peak_mib = profile.number_or("peak_rss_kib", 0.0) / 1024.0;
  if (mode == "off" && peak_mib <= 0.0) return;

  std::string summary = "mode `" + mode + "`, peak RSS " + fmt(peak_mib, 1) + " MiB";
  if (profile.contains("fallback_reasons") && profile.at("fallback_reasons").is_array()) {
    for (const JsonValue& r : profile.at("fallback_reasons").as_array()) {
      if (r.is_string()) summary += "; fallback: " + r.as_string();
    }
  }
  if (html) {
    out << "<h2>Resource profile</h2>\n<p>" << escape_html(summary) << "</p>\n";
  } else {
    out << "\n## Resource profile\n\n" << summary << "\n\n";
  }

  // The hardware table only makes sense when some shard actually counted:
  // a fallback run's counters object carries wall/cpu alone, and a table of
  // zero cycles would read as "this run executed nothing".
  if (profile.contains("counters") && profile.at("counters").is_object() &&
      profile.at("counters").number_or("cycles", 0.0) > 0.0) {
    const JsonValue& c = profile.at("counters");
    const std::string ipc = fmt(c.number_or("ipc", 0.0), 2);
    const std::string miss = c.contains("cache_miss_rate")
                                 ? fmt(c.number_or("cache_miss_rate", 0.0) * 100.0, 1) + "%"
                                 : std::string("n/a");
    const std::string ghz = fmt(c.number_or("ghz", 0.0), 2);
    if (html) {
      out << "<table>\n<tr><th>cycles</th><th>instructions</th><th>IPC</th>"
          << "<th>cache-miss rate</th><th>GHz</th><th>task-clock (ms)</th></tr>\n"
          << "<tr><td>" << fmt_g(c.number_or("cycles", 0.0)) << "</td><td>"
          << fmt_g(c.number_or("instructions", 0.0)) << "</td><td>" << ipc << "</td><td>"
          << miss << "</td><td>" << ghz << "</td><td>"
          << fmt(c.number_or("task_clock_ms", 0.0), 1) << "</td></tr>\n</table>\n";
    } else {
      out << "| cycles | instructions | IPC | cache-miss rate | GHz | task-clock (ms) |\n"
          << "|---|---|---|---|---|---|\n"
          << "| " << fmt_g(c.number_or("cycles", 0.0)) << " | "
          << fmt_g(c.number_or("instructions", 0.0)) << " | " << ipc << " | " << miss << " | "
          << ghz << " | " << fmt(c.number_or("task_clock_ms", 0.0), 1) << " |\n";
    }
  }

  if (profile.contains("per_shard") && profile.at("per_shard").is_object() &&
      !profile.at("per_shard").as_object().empty()) {
    if (html) {
      out << "<table>\n<tr><th>shard</th><th>mode</th><th>peak RSS (MiB)</th><th>IPC</th>"
          << "<th>cache-miss rate</th></tr>\n";
    } else {
      out << "\n| shard | mode | peak RSS (MiB) | IPC | cache-miss rate |\n|---|---|---|---|---|\n";
    }
    for (const auto& [shard, p] : profile.at("per_shard").as_object()) {
      if (!p.is_object()) continue;
      std::string ipc = "n/a";
      std::string miss = "n/a";
      if (p.contains("counters") && p.at("counters").is_object()) {
        const JsonValue& c = p.at("counters");
        if (c.contains("ipc")) ipc = fmt(c.number_or("ipc", 0.0), 2);
        if (c.contains("cache_miss_rate")) {
          miss = fmt(c.number_or("cache_miss_rate", 0.0) * 100.0, 1) + "%";
        }
      }
      const std::string shard_mode = p.string_or("mode", "off");
      const double shard_mib = p.number_or("peak_rss_kib", 0.0) / 1024.0;
      if (html) {
        out << "<tr><td>" << escape_html(shard) << "</td><td>" << escape_html(shard_mode)
            << "</td><td>" << fmt(shard_mib, 1) << "</td><td>" << ipc << "</td><td>" << miss
            << "</td></tr>\n";
      } else {
        out << "| " << shard << " | " << shard_mode << " | " << fmt(shard_mib, 1) << " | "
            << ipc << " | " << miss << " |\n";
      }
    }
    if (html) out << "</table>\n";
  }
}

void emit_series_summary_rows(std::ostringstream& out, const JsonValue& section, bool html) {
  for (const auto& [name, s] : section.as_object()) {
    if (!s.is_object()) continue;
    if (html) {
      out << "<tr><td><code>" << escape_html(name) << "</code></td><td>"
          << fmt_g(s.number_or("count", 0.0)) << "</td><td>" << fmt(s.number_or("mean", 0.0), 5)
          << "</td><td>" << fmt(s.number_or("stddev", 0.0), 5) << "</td><td>"
          << fmt(s.number_or("min", 0.0), 5) << "</td><td>" << fmt(s.number_or("max", 0.0), 5)
          << "</td></tr>\n";
    } else {
      out << "| `" << name << "` | " << fmt_g(s.number_or("count", 0.0)) << " | "
          << fmt(s.number_or("mean", 0.0), 5) << " | " << fmt(s.number_or("stddev", 0.0), 5)
          << " | " << fmt(s.number_or("min", 0.0), 5) << " | " << fmt(s.number_or("max", 0.0), 5)
          << " |\n";
    }
  }
}

std::string render_html(const JsonValue& doc) {
  std::ostringstream out;
  const std::string run = escape_html(doc.string_or("run", "?"));
  out << "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n"
      << "<title>ARO-PUF run report: " << run << "</title>\n<style>\n"
      << "body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:60em;"
      << "color:#1a1a1a;padding:0 1em}\n"
      << "h1{font-size:1.5em}h2{font-size:1.15em;margin-top:2em;border-bottom:1px solid #ddd}\n"
      << "table{border-collapse:collapse;width:100%;margin:.8em 0}\n"
      << "th,td{border:1px solid #ddd;padding:.35em .6em;text-align:left}\n"
      << "th{background:#f5f5f5}code{background:#f2f2f2;padding:0 .2em}\n"
      << ".hist{width:520px;max-width:100%}.hist rect{fill:#4a78b0}\n"
      << ".hist text{font-size:10px;fill:#666}\n"
      << ".conflict{color:#a00;font-weight:bold}.ok{color:#060}\n"
      << "</style></head><body>\n";

  out << "<h1>ARO-PUF sharded run report</h1>\n<table>\n";
  out << "<tr><th>run</th><td>" << run << "</td></tr>\n";
  out << "<tr><th>chips</th><td>" << fmt_g(doc.number_or("chips", 0.0)) << "</td></tr>\n";
  out << "<tr><th>shards</th><td>" << fmt_g(doc.number_or("shard_count", 0.0)) << "</td></tr>\n";
  out << "<tr><th>git sha</th><td><code>" << escape_html(doc.string_or("git_sha", "?"))
      << "</code></td></tr>\n";
  out << "<tr><th>raw series</th><td>" << escape_html(raw_series_label(doc))
      << "</td></tr>\n";
  out << "</table>\n";

  out << "<h2>Headline results</h2>\n<table>\n"
      << "<tr><th>metric</th><th>conventional</th><th>ARO</th><th>notes</th></tr>\n";
  for (const Row& r : headline_rows(doc)) {
    out << "<tr><td>" << escape_html(r.metric) << "</td><td>" << escape_html(r.conventional)
        << "</td><td>" << escape_html(r.aro) << "</td><td>" << escape_html(r.note)
        << "</td></tr>\n";
  }
  out << "</table>\n";

  out << "<h2>Shard health</h2>\n";
  if (doc.contains("conflicts") && doc.at("conflicts").is_array() &&
      !doc.at("conflicts").as_array().empty()) {
    out << "<p class=\"conflict\">Provenance conflicts detected:</p><ul>\n";
    for (const JsonValue& c : doc.at("conflicts").as_array()) {
      out << "<li class=\"conflict\"><code>" << escape_html(c.string_or("field", "?"))
          << "</code> disagrees across shards</li>\n";
    }
    out << "</ul>\n";
  } else {
    out << "<p class=\"ok\">No provenance conflicts.</p>\n";
  }
  if (doc.contains("shards") && doc.at("shards").is_array()) {
    out << "<table>\n<tr><th>shard</th><th>chips</th><th>threads</th><th>kernel</th>"
        << "<th>wall (ms)</th><th>manifest</th></tr>\n";
    for (const JsonValue& s : doc.at("shards").as_array()) {
      out << "<tr><td>" << fmt_g(s.number_or("index", 0.0)) << "</td><td>["
          << fmt_g(s.number_or("chip_lo", 0.0)) << ", " << fmt_g(s.number_or("chip_hi", 0.0))
          << ")</td><td>" << fmt_g(s.number_or("threads", 0.0)) << "</td><td>"
          << escape_html(s.string_or("kernel_backend", "?")) << "</td><td>"
          << fmt(s.number_or("wall_ms", 0.0), 1) << "</td><td><code>"
          << escape_html(s.string_or("manifest", "?")) << "</code></td></tr>\n";
    }
    out << "</table>\n";
  }
  emit_resource_profile(out, doc, /*html=*/true);

  if (doc.contains("stages") && doc.at("stages").is_array()) {
    out << "<h2>Stage timing (across all shards)</h2>\n<table>\n"
        << "<tr><th>stage</th><th>runs</th><th>wall sum (ms)</th><th>wall max (ms)</th>"
        << "<th>cpu sum (ms)</th></tr>\n";
    for (const JsonValue& s : doc.at("stages").as_array()) {
      out << "<tr><td><code>" << escape_html(s.string_or("name", "?")) << "</code></td><td>"
          << fmt_g(s.number_or("count", 0.0)) << "</td><td>"
          << fmt(s.number_or("wall_ms_sum", 0.0), 1) << "</td><td>"
          << fmt(s.number_or("wall_ms_max", 0.0), 1) << "</td><td>"
          << fmt(s.number_or("cpu_ms_sum", 0.0), 1) << "</td></tr>\n";
    }
    out << "</table>\n";
  }

  if (doc.contains("results") && doc.at("results").is_object()) {
    const JsonValue& results = doc.at("results");
    out << "<h2>Merged distributions</h2>\n<table>\n"
        << "<tr><th>series</th><th>count</th><th>mean</th><th>stddev</th><th>min</th>"
        << "<th>max</th></tr>\n";
    for (const char* kind : {"samples", "tallies"}) {
      if (results.contains(kind)) emit_series_summary_rows(out, results.at(kind), /*html=*/true);
    }
    out << "</table>\n";
    for (const char* kind : {"samples", "tallies"}) {
      if (!results.contains(kind)) continue;
      for (const auto& [name, s] : results.at(kind).as_object()) {
        if (!s.is_object() || !s.contains("histogram")) continue;
        out << "<h3><code>" << escape_html(name) << "</code></h3>\n"
            << svg_histogram(s.at("histogram"), name) << "\n";
      }
    }
  }

  out << "</body></html>\n";
  return out.str();
}

// --- Markdown ---------------------------------------------------------------

std::string render_markdown(const JsonValue& doc) {
  std::ostringstream out;
  out << "# ARO-PUF sharded run report\n\n";
  out << "- run: `" << doc.string_or("run", "?") << "`\n";
  out << "- chips: " << fmt_g(doc.number_or("chips", 0.0)) << " across "
      << fmt_g(doc.number_or("shard_count", 0.0)) << " shards\n";
  out << "- git sha: `" << doc.string_or("git_sha", "?") << "`\n";
  out << "- raw series: " << raw_series_label(doc) << "\n\n";

  out << "## Headline results\n\n";
  out << "| metric | conventional | ARO | notes |\n|---|---|---|---|\n";
  for (const Row& r : headline_rows(doc)) {
    out << "| " << r.metric << " | " << r.conventional << " | " << r.aro << " | " << r.note
        << " |\n";
  }

  out << "\n## Shard health\n\n";
  const bool conflicts = doc.contains("conflicts") && doc.at("conflicts").is_array() &&
                         !doc.at("conflicts").as_array().empty();
  if (conflicts) {
    out << "**Provenance conflicts detected:**\n\n";
    for (const JsonValue& c : doc.at("conflicts").as_array()) {
      out << "- `" << c.string_or("field", "?") << "` disagrees across shards\n";
    }
    out << "\n";
  } else {
    out << "No provenance conflicts.\n\n";
  }
  if (doc.contains("shards") && doc.at("shards").is_array()) {
    out << "| shard | chips | threads | kernel | wall (ms) |\n|---|---|---|---|---|\n";
    for (const JsonValue& s : doc.at("shards").as_array()) {
      out << "| " << fmt_g(s.number_or("index", 0.0)) << " | ["
          << fmt_g(s.number_or("chip_lo", 0.0)) << ", " << fmt_g(s.number_or("chip_hi", 0.0))
          << ") | " << fmt_g(s.number_or("threads", 0.0)) << " | "
          << s.string_or("kernel_backend", "?") << " | " << fmt(s.number_or("wall_ms", 0.0), 1)
          << " |\n";
    }
  }
  emit_resource_profile(out, doc, /*html=*/false);

  if (doc.contains("stages") && doc.at("stages").is_array()) {
    out << "\n## Stage timing\n\n";
    out << "| stage | runs | wall sum (ms) | wall max (ms) | cpu sum (ms) |\n|---|---|---|---|---|\n";
    for (const JsonValue& s : doc.at("stages").as_array()) {
      out << "| `" << s.string_or("name", "?") << "` | " << fmt_g(s.number_or("count", 0.0))
          << " | " << fmt(s.number_or("wall_ms_sum", 0.0), 1) << " | "
          << fmt(s.number_or("wall_ms_max", 0.0), 1) << " | "
          << fmt(s.number_or("cpu_ms_sum", 0.0), 1) << " |\n";
    }
  }

  if (doc.contains("results") && doc.at("results").is_object()) {
    out << "\n## Merged distributions\n\n";
    out << "| series | count | mean | stddev | min | max |\n|---|---|---|---|---|---|\n";
    std::ostringstream rows;
    for (const char* kind : {"samples", "tallies"}) {
      if (doc.at("results").contains(kind)) {
        emit_series_summary_rows(rows, doc.at("results").at(kind), /*html=*/false);
      }
    }
    out << rows.str();
  }
  return out.str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out.is_open()) {
    std::fprintf(stderr, "aropuf_report: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const int rc = parse_args(argc, argv, &opt); rc != 0) return rc;
  if (!opt.dump_path.empty()) return dump_shard_manifest(opt.dump_path);

  JsonValue doc;
  try {
    std::ifstream in(opt.manifest_path, std::ios::binary);
    if (!in.is_open()) throw std::runtime_error("cannot open file");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    doc = JsonValue::parse(buffer.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aropuf_report: %s: %s\n", opt.manifest_path.c_str(), e.what());
    return 1;
  }
  if (doc.string_or("schema", "") != "aropuf-aggregate-manifest") {
    std::fprintf(stderr, "aropuf_report: %s is not an aggregate manifest (schema=%s)\n",
                 opt.manifest_path.c_str(), doc.string_or("schema", "?").c_str());
    return 1;
  }

  if (!opt.html_path.empty() && !write_file(opt.html_path, render_html(doc))) return 1;
  if (!opt.md_path.empty() && !write_file(opt.md_path, render_markdown(doc))) return 1;
  std::printf("aropuf_report: report written (%s%s%s)\n",
              opt.html_path.empty() ? "" : opt.html_path.c_str(),
              (!opt.html_path.empty() && !opt.md_path.empty()) ? ", " : "",
              opt.md_path.empty() ? "" : opt.md_path.c_str());
  return 0;
}
