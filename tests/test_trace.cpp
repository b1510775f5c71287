// The narrative audit trail: what a run leaves in the host's typed event
// ring, and how write_event_log() renders it for humans.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string_view>

#include "obs/export.hpp"
#include "test_util.hpp"

namespace rh::test {
namespace {

/// The first retained event whose label contains `needle`, or nullptr.
const obs::TraceEvent* find_event(const obs::Observer& o,
                                  std::string_view needle) {
  const obs::TraceEvent* hit = nullptr;
  o.events().for_each([&](const obs::TraceEvent& e) {
    if (hit == nullptr && std::string_view(e.label).find(needle) !=
                              std::string_view::npos) {
      hit = &e;
    }
  });
  return hit;
}

std::size_t count_category(const obs::Observer& o, obs::Category c) {
  std::size_t n = 0;
  o.events().for_each([&](const obs::TraceEvent& e) { n += e.category == c; });
  return n;
}

TEST(Tracer, RecordsAndQueries) {
  obs::Observer o;
  o.set_enabled(true);
  o.emit(10, obs::Category::kVmm, obs::EventKind::kLifecycle, "boot begin");
  o.emit(20, obs::Category::kGuest, obs::EventKind::kLifecycle,
         "kernel booting");
  o.emit(30, obs::Category::kVmm, obs::EventKind::kLifecycle, "boot done");
  EXPECT_EQ(o.events().size(), std::size_t{3});
  EXPECT_EQ(count_category(o, obs::Category::kVmm), std::size_t{2});
  EXPECT_NE(find_event(o, "kernel"), nullptr);
  EXPECT_EQ(find_event(o, "panic"), nullptr);
  o.clear();
  EXPECT_EQ(o.events().size(), std::size_t{0});
}

TEST(Tracer, DisabledDropsRecords) {
  obs::Observer o;
  o.emit(1, obs::Category::kOther, obs::EventKind::kMark, "y");
  EXPECT_EQ(o.events().size(), std::size_t{0});
  o.set_enabled(true);
  o.emit(2, obs::Category::kOther, obs::EventKind::kMark, "y");
  EXPECT_EQ(o.events().size(), std::size_t{1});
}

TEST(Tracer, StreamsHumanReadableLines) {
  obs::Observer o;
  o.set_enabled(true);
  o.emit(1'500'000, obs::Category::kHost, obs::EventKind::kLifecycle,
         "dom0 down");
  std::ostringstream os;
  obs::write_event_log(os, o);
  EXPECT_EQ(os.str(), "[1.500s] host: dom0 down\n");
  // One line per event, oldest first; milliseconds round half up.
  o.emit(2'000'500, obs::Category::kVmm, obs::EventKind::kMark, "more");
  std::ostringstream both;
  obs::write_event_log(both, o);
  EXPECT_EQ(both.str(), "[1.500s] host: dom0 down\n[2.001s] vmm: more\n");
}

TEST(Tracer, WarmRebootLeavesAnAuditTrail) {
  HostFixture fx(1);
  obs::Observer& o = fx.host->obs();
  o.set_enabled(true);
  fx.rejuvenate(rejuv::RebootKind::kWarm);

  const obs::TraceEvent* suspended = find_event(o, "suspended on-memory");
  ASSERT_NE(suspended, nullptr);
  EXPECT_EQ(suspended->category, obs::Category::kVmm);
  EXPECT_EQ(suspended->a, static_cast<std::uint64_t>(sim::kGiB / sim::kPageSize));
  const obs::TraceEvent* rereserved =
      find_event(o, "re-reserved preserved regions");
  ASSERT_NE(rereserved, nullptr);
  EXPECT_EQ(rereserved->a, 1u);  // the one VM's image
  EXPECT_EQ(rereserved->b, 0u);  // none dropped
  const obs::TraceEvent* reloaded = find_event(o, "reboot of the VMM completed");
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->a, static_cast<std::uint64_t>(vmm::BootMode::kQuickReload));
  EXPECT_NE(find_event(o, "resumed on-memory"), nullptr);

  // The quick reload and the completed pass are closed spans.
  bool quick_reload = false, completed = false;
  for (const auto& s : o.spans().records()) {
    EXPECT_NE(s.phase, obs::Phase::kHardwareReset);
    quick_reload |= s.phase == obs::Phase::kQuickReload && !s.open();
    completed |= s.phase == obs::Phase::kPass && !s.open() &&
                 std::strcmp(s.label, "warm-VM reboot") == 0;
  }
  EXPECT_TRUE(quick_reload);
  EXPECT_TRUE(completed);
  // No hardware reset appears anywhere in the trail.
  EXPECT_EQ(find_event(o, "hardware"), nullptr);
}

TEST(Tracer, ErrorPathLeakIsTraced) {
  Calibration calib;
  calib.heap_leak_per_error_path = 128 * sim::kKiB;
  HostFixture fx(0, calib);
  fx.host->obs().set_enabled(true);
  EXPECT_EQ(fx.host->vmm().trigger_error_path(), 128 * sim::kKiB);
  EXPECT_EQ(fx.host->vmm().heap().leaked(), 128 * sim::kKiB);
  const obs::TraceEvent* leak = find_event(fx.host->obs(), "error path executed");
  ASSERT_NE(leak, nullptr);
  EXPECT_EQ(leak->a, static_cast<std::uint64_t>(128 * sim::kKiB));
  // Default calibration: error paths are clean.
  HostFixture clean(0);
  EXPECT_EQ(clean.host->vmm().trigger_error_path(), 0);
  EXPECT_EQ(clean.host->vmm().heap().leaked(), 0);
}

}  // namespace
}  // namespace rh::test
