#include "cluster/metrics_scraper.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <string_view>

#include "obs/export.hpp"
#include "obs/prometheus.hpp"
#include "simcore/check.hpp"

namespace rh::cluster {

namespace {

// Minimal JSON string escaping for flight-recorder text (labels and
// series names are our own short ASCII, but a truncated label could in
// principle carry anything printable).
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

// JSON number: finite doubles bare, inf/nan quoted (JSON has no literal
// for them; fmt_double spells them "inf"/"-inf"/"nan").
std::string json_number(double v) {
  return std::isfinite(v) ? obs::fmt_double(v) : '"' + obs::fmt_double(v) + '"';
}

}  // namespace

MetricsScraper::MetricsScraper(Cluster& cluster, Cluster::ScrapeConfig config)
    : cluster_(cluster),
      config_(config),
      sim_(cluster.sim_),
      tsdb_(cluster.hosts_.size(), config.tsdb),
      slo_(cluster.hosts_.size(), config.slo) {
  // A timeout that a healthy round trip could exceed would mark live
  // hosts dark; a round that outlives the interval would overlap the
  // next one and break the single-outstanding-round accounting.
  ensure(config_.timeout > 2 * cluster_.config_.calib.link.latency,
         "MetricsScraper: timeout must exceed the scrape round trip");
  ensure(config_.interval > config_.timeout,
         "MetricsScraper: interval must exceed the timeout");
  const std::size_t n = cluster_.hosts_.size();
  pending_round_.assign(n, 0);
  ok_.assign(n, 0);
  failed_.assign(n, 0);
  down_since_.assign(n, -1);
  flagged_.assign(n, 0);
  exporters_.reserve(n);
  for (std::size_t h = 0; h < n; ++h) {
    vmm::Host* host = cluster_.hosts_[h].get();
    exporters_.push_back(std::make_unique<obs::MetricsExporter>(
        host->obs(), "host-" + std::to_string(h),
        /*serving=*/[host] { return host->up(); },
        /*collect=*/[this, h] { cluster_.collect_host_metrics(h); }));
  }
}

void MetricsScraper::start() {
  ensure(!started_, "MetricsScraper::start: already started");
  started_ = true;
  running_ = true;
  auto arm = [this] { sim_.after(config_.interval, [this] { run_round(); }); };
  if (cluster_.config_.engine != nullptr) {
    cluster_.config_.engine->run_on(0, std::move(arm));
  } else {
    arm();
  }
}

void MetricsScraper::stop() { running_ = false; }

void MetricsScraper::run_round() {
  if (!running_) return;
  ++stats_.rounds_started;
  ++round_seq_;
  outstanding_ = cluster_.hosts_.size();
  for (std::size_t h = 0; h < cluster_.hosts_.size(); ++h) scrape_host(h);
  // Fixed cadence regardless of round outcome; interval > timeout keeps
  // rounds from overlapping.
  sim_.after(config_.interval, [this] { run_round(); });
}

void MetricsScraper::scrape_host(std::size_t host) {
  pending_round_[host] = round_seq_;
  const std::uint64_t round = round_seq_;
  sim_.after(config_.timeout,
             [this, host, round] { on_timeout(host, round); });
  auto request = [this, host, round] { scrape_arrive(host, round); };
  if (cluster_.config_.engine != nullptr) {
    cluster_.config_.engine->post(
        cluster_.partition_of(static_cast<int>(host)),
        cluster_.config_.calib.link.latency, std::move(request));
  } else {
    sim_.after(cluster_.config_.calib.link.latency, std::move(request));
  }
}

void MetricsScraper::scrape_arrive(std::size_t host, std::uint64_t round) {
  // Host partition. A non-serving exporter replies with nothing at all;
  // the control-side timeout is the only failure signal.
  exporters_[host]->handle_scrape([this, host, round](std::string body) {
    cluster_.hosts_[host]->link().deliver(
        [this, host, round, body = std::move(body)]() mutable {
          on_reply(host, round, std::move(body));
        });
  });
}

void MetricsScraper::on_reply(std::size_t host, std::uint64_t round,
                              std::string body) {
  if (pending_round_[host] != round) return;  // its timeout already ran
  pending_round_[host] = 0;
  ++stats_.scrapes_ok;
  ++ok_[host];
  stats_.bytes_transferred += body.size();
  tsdb_.mark_fresh(host);
  const sim::SimTime t = sim_.now();
  obs::parse_prometheus_text(
      body, [this, host, t](std::string_view key, double value) {
        tsdb_.ingest(host, key, t, value);
      });
  slo_.record(host, true);
  finish_scrape();
}

void MetricsScraper::on_timeout(std::size_t host, std::uint64_t round) {
  if (pending_round_[host] != round) return;  // the reply beat us
  pending_round_[host] = 0;
  ++stats_.scrapes_failed;
  ++failed_[host];
  tsdb_.mark_stale(host, sim_.now());
  const bool went_dark = slo_.record(host, false);
  if (went_dark && down_since_[host] >= 0) {
    // The telemetry plane just concluded what the watchdog already
    // knows: the gap is the scrape-visible detection latency.
    detection_hist_.add(sim_.now() - down_since_[host]);
    ++stats_.detections;
  }
  finish_scrape();
}

void MetricsScraper::finish_scrape() {
  if (--outstanding_ != 0) return;
  slo_.end_round();
  ++stats_.rounds_completed;
  if (!config_.gate_admission) return;
  const bool blocked = slo_.admission_paused();
  if (blocked == blocked_) return;
  blocked_ = blocked;
  cluster_.set_scrape_admission_blocked(blocked);
}

std::pair<std::uint64_t, std::int64_t> MetricsScraper::wave_signals(
    std::size_t host) const {
  std::uint64_t load = 0;
  std::int64_t headroom = std::numeric_limits<std::int64_t>::max();
  if (const auto s = tsdb_.latest(host, "host_load");
      s.has_value() && std::isfinite(s->value) && s->value > 0.0) {
    load = static_cast<std::uint64_t>(s->value);
  }
  if (const auto s = tsdb_.latest(host, "host_preserved_headroom");
      s.has_value() && std::isfinite(s->value) && s->value < 9.0e18) {
    headroom = static_cast<std::int64_t>(s->value);
  }
  return {load, headroom};
}

void MetricsScraper::note_host_down(std::size_t host) {
  if (down_since_[host] < 0) down_since_[host] = sim_.now();
}

void MetricsScraper::note_host_up(std::size_t host) {
  down_since_[host] = -1;
}

void MetricsScraper::note_unrecovered(std::size_t host) {
  if (flagged_[host] != 0) return;
  flagged_[host] = 1;
  flight_records_.push_back({host, sim_.now()});
}

void MetricsScraper::write_flight_record(std::ostream& os,
                                         std::size_t host) const {
  const obs::MetricsExporter& ex = *exporters_[host];
  os << "{\n";
  os << "  \"host\": " << host << ",\n";
  os << "  \"instance\": \"" << json_escape(ex.instance()) << "\",\n";
  os << "  \"at\": " << sim_.now() << ",\n";
  os << "  \"down_since\": " << down_since_[host] << ",\n";
  os << "  \"dark\": " << (slo_.dark(host) ? "true" : "false") << ",\n";
  os << "  \"consecutive_misses\": " << slo_.consecutive_misses(host) << ",\n";
  os << "  \"stale\": " << (tsdb_.stale(host) ? "true" : "false") << ",\n";
  os << "  \"stale_since\": "
     << (tsdb_.stale(host) ? tsdb_.stale_since(host) : -1) << ",\n";
  os << "  \"scrapes\": {\"ok\": " << ok_[host]
     << ", \"failed\": " << failed_[host]
     << ", \"served\": " << ex.scrapes_served()
     << ", \"dropped\": " << ex.scrapes_dropped() << "},\n";
  os << "  \"series\": [";
  bool first_series = true;
  tsdb_.for_each_series(
      host, [&](std::string_view name,
                const std::vector<obs::TimeSeriesStore::Sample>& window,
                const sim::LatencyHistogram& sketch) {
        os << (first_series ? "\n" : ",\n");
        first_series = false;
        os << "    {\"name\": \"" << json_escape(name) << "\", \"samples\": [";
        for (std::size_t i = 0; i < window.size(); ++i) {
          os << (i == 0 ? "" : ", ") << "[" << window[i].time << ", "
             << json_number(window[i].value) << "]";
        }
        os << "], \"sketch\": {\"count\": " << sketch.count()
           << ", \"p50_us\": " << sketch.percentile(50)
           << ", \"p99_us\": " << sketch.percentile(99)
           << ", \"max_us\": " << sketch.max() << "}}";
      });
  os << (first_series ? "" : "\n  ") << "],\n";
  // The tail of the host's typed event ring: the last things the host
  // said before (or while) it went dark.
  const obs::EventRing& ring = cluster_.hosts_[host]->obs().events();
  const std::size_t tail = config_.flight_recorder_tail;
  const std::size_t skip = ring.size() > tail ? ring.size() - tail : 0;
  os << "  \"events_retained\": " << ring.size()
     << ", \"events_dropped\": " << ring.dropped() << ",\n";
  os << "  \"events\": [";
  std::size_t index = 0;
  bool first_event = true;
  ring.for_each([&](const obs::TraceEvent& e) {
    if (index++ < skip) return;
    os << (first_event ? "\n" : ",\n");
    first_event = false;
    os << "    {\"t\": " << e.time << ", \"category\": \""
       << obs::to_string(e.category) << "\", \"kind\": \""
       << obs::to_string(e.kind) << "\", \"subject\": " << e.subject
       << ", \"a\": " << e.a << ", \"b\": " << e.b << ", \"label\": \""
       << json_escape(e.label) << "\"}";
  });
  os << (first_event ? "" : "\n  ") << "]\n";
  os << "}\n";
}

std::uint64_t MetricsScraper::state_digest() const {
  std::uint64_t h = 0;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(stats_.rounds_started);
  mix(stats_.rounds_completed);
  mix(stats_.scrapes_ok);
  mix(stats_.scrapes_failed);
  mix(stats_.bytes_transferred);
  mix(stats_.detections);
  mix(blocked_ ? 1 : 0);
  for (std::size_t i = 0; i < ok_.size(); ++i) {
    mix(ok_[i]);
    mix(failed_[i]);
    mix(std::bit_cast<std::uint64_t>(down_since_[i]));
    mix(flagged_[i]);
  }
  for (const FlightRecord& r : flight_records_) {
    mix(r.host);
    mix(std::bit_cast<std::uint64_t>(r.at));
  }
  mix(detection_hist_.count());
  mix(std::bit_cast<std::uint64_t>(detection_hist_.sum()));
  mix(tsdb_.state_digest());
  mix(slo_.state_digest());
  for (const auto& ex : exporters_) {
    mix(ex->scrapes_served());
    mix(ex->scrapes_dropped());
  }
  return h;
}

}  // namespace rh::cluster
