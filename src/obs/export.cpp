#include "obs/export.hpp"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

#include "simcore/check.hpp"

namespace rh::obs {

std::string fmt_double(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v < 0 ? "-inf" : "inf";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  ensure(ec == std::errc{}, "fmt_double: to_chars failed");
  return std::string(buf, end);
}

namespace {

/// Escapes the few characters our labels can legally contain. Labels come
/// from fixed string literals plus VM names, so this stays minimal.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
  }
  return out;
}

}  // namespace

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(os) {
  os_ << "{\"traceEvents\":[\n";
}

ChromeTraceWriter::~ChromeTraceWriter() { os_ << "\n],\"displayTimeUnit\":\"ms\"}\n"; }

void ChromeTraceWriter::event_prefix() {
  if (!first_) os_ << ",\n";
  first_ = false;
}

void ChromeTraceWriter::add_process(int pid, std::string_view name,
                                    const Observer& obs) {
  char buf[256];
  event_prefix();
  std::snprintf(buf, sizeof buf,
                "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                "\"args\":{\"name\":\"%s\"}}",
                pid, json_escape(name).c_str());
  os_ << buf;

  const auto& spans = obs.spans().records();
  for (SpanId i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const sim::SimTime end = s.open() ? s.start : s.end;
    // Async begin/end pair keyed by the span index: async tracks render
    // overlapping sibling spans (parallel guest boots) without the strict
    // stack nesting "X" events require.
    event_prefix();
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"b\",\"cat\":\"%s\",\"id\":%u,\"pid\":%d,"
                  "\"tid\":0,\"ts\":%" PRId64
                  ",\"name\":\"%s\",\"args\":{\"parent\":%d}}",
                  to_string(s.phase), i, pid, s.start,
                  json_escape(s.label).c_str(),
                  s.parent == kNoSpan ? -1 : static_cast<int>(s.parent));
    os_ << buf;
    event_prefix();
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"e\",\"cat\":\"%s\",\"id\":%u,\"pid\":%d,"
                  "\"tid\":0,\"ts\":%" PRId64 ",\"name\":\"%s\"}",
                  to_string(s.phase), i, pid, end,
                  json_escape(s.label).c_str());
    os_ << buf;
  }

  obs.events().for_each([&](const TraceEvent& e) {
    event_prefix();
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"i\",\"s\":\"p\",\"cat\":\"%s\",\"pid\":%d,"
                  "\"tid\":0,\"ts\":%" PRId64
                  ",\"name\":\"%s\",\"args\":{\"kind\":\"%s\",\"subject\":%d,"
                  "\"a\":%" PRIu64 ",\"b\":%" PRIu64 "}}",
                  to_string(e.category), pid, e.time,
                  json_escape(e.label).c_str(), to_string(e.kind), e.subject,
                  e.a, e.b);
    os_ << buf;
  });
}

void write_chrome_trace(std::ostream& os, const Observer& obs, int pid,
                        std::string_view process_name) {
  ChromeTraceWriter writer(os);
  writer.add_process(pid, process_name, obs);
}

void write_event_log(std::ostream& os, const Observer& obs) {
  // Integer milliseconds (rounded) rather than %.3f: the C locale's
  // decimal point must not leak into the log.
  char buf[96];
  obs.events().for_each([&](const TraceEvent& e) {
    const std::int64_t ms = (e.time + 500) / 1000;
    std::snprintf(buf, sizeof buf, "[%" PRId64 ".%03" PRId64 "s] %s: %s\n",
                  ms / 1000, ms % 1000, to_string(e.category), e.label);
    os << buf;
  });
}

void write_metrics_json(std::ostream& os, const MetricsRegistry& m) {
  char buf[256];
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& e : m.counters()) {
    std::snprintf(buf, sizeof buf, "%s\n    \"%s\": %" PRIu64,
                  first ? "" : ",", json_escape(e.name).c_str(), e.value);
    os << buf;
    first = false;
  }
  os << (m.counters().empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  // JSON has no literal for non-finite numbers; gauges can legitimately
  // hold infinity (e.g. unlimited-budget headroom), so those render as
  // quoted strings rather than producing invalid JSON.
  const auto json_number = [](double v) {
    return std::isfinite(v) ? fmt_double(v) : '"' + fmt_double(v) + '"';
  };
  for (const auto& e : m.gauges()) {
    os << (first ? "" : ",") << "\n    \"" << json_escape(e.name)
       << "\": " << json_number(e.value);
    first = false;
  }
  os << (m.gauges().empty() ? "" : "\n  ") << "},\n  \"summaries\": {";
  first = true;
  for (const auto& e : m.summaries()) {
    os << (first ? "" : ",") << "\n    \"" << json_escape(e.name)
       << "\": {\"count\": " << e.value.count()
       << ", \"mean\": " << json_number(e.value.count() ? e.value.mean() : 0.0)
       << ", \"stddev\": "
       << json_number(e.value.count() > 1 ? e.value.stddev() : 0.0)
       << ", \"min\": " << json_number(e.value.count() ? e.value.min() : 0.0)
       << ", \"max\": " << json_number(e.value.count() ? e.value.max() : 0.0)
       << "}";
    first = false;
  }
  os << (m.summaries().empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& e : m.histograms()) {
    std::snprintf(
        buf, sizeof buf,
        "%s\n    \"%s\": {\"count\": %" PRIu64
        ", \"mean_us\": %s, \"p50_us\": %" PRId64 ", \"p99_us\": %" PRId64
        ", \"max_us\": %" PRId64 "}",
        first ? "" : ",", json_escape(e.name).c_str(), e.value.count(),
        fmt_double(e.value.mean()).c_str(), e.value.percentile(50),
        e.value.percentile(99), e.value.max());
    os << buf;
    first = false;
  }
  os << (m.histograms().empty() ? "" : "\n  ") << "}\n}\n";
}

}  // namespace rh::obs
