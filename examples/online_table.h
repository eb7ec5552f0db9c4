// The per-second dashboard table shared by the live_monitor tour and
// `jigtool follow`: one row per OnlineMonitor window (activity, traffic
// mix, utilization, synchronization quality — what a NOC dashboard polls).
#pragma once

#include <cstdio>

#include "jigsaw/online.h"

namespace jig {

inline void PrintOnlineHeader() {
  std::printf("  %8s %8s %7s %7s %7s %8s %8s %7s %7s %9s\n", "window",
              "jframes", "data", "mgmt", "ctrl", "clients", "APs", "util",
              "bcast", "sync-disp");
}

// Prints one window, labelled by whole seconds since the first window.
class OnlineTablePrinter {
 public:
  void operator()(const OnlineWindowStats& w) {
    if (!started_) {
      started_ = true;
      origin_ = w.window_start;  // may be capture time 0
    }
    std::printf("  %6llds %8llu %7llu %7llu %7llu %8d %8d %6.1f%% "
                "%6.1f%% %7lldus\n",
                static_cast<long long>((w.window_start - origin_) /
                                       kMicrosPerSecond),
                static_cast<unsigned long long>(w.jframes),
                static_cast<unsigned long long>(w.data_frames),
                static_cast<unsigned long long>(w.mgmt_frames),
                static_cast<unsigned long long>(w.ctrl_frames),
                w.active_clients, w.active_aps, 100.0 * w.airtime_fraction,
                100.0 * w.broadcast_airtime_fraction,
                static_cast<long long>(w.worst_dispersion));
  }

 private:
  bool started_ = false;
  UniversalMicros origin_ = 0;
};

}  // namespace jig
